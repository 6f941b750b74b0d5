// X9-like message-passing library (§7.3.2): fixed-capacity inboxes of
// reusable message slots; producers fill a message struct and publish it
// with a compare-and-swap, consumers poll.
//
// The pattern under study (Listing 8): fill_msg writes the payload, then
// x9_write_to_inbox's CAS forces publication of those private stores. A
// demote pre-store between the two overlaps publication with the inbox
// bookkeeping, cutting the send latency.
#ifndef SRC_MSG_X9_H_
#define SRC_MSG_X9_H_

#include "src/sim/core.h"
#include "src/sim/machine.h"

namespace prestore {

enum class MsgPrestore : uint8_t {
  kOff,
  kDemote,  // DirtBuster's recommendation (message buffers are reused)
};

class X9Inbox {
 public:
  // `slots` must be a power of two; `msg_size` is the payload size.
  // `region` places the ring: the §7.3.2 study keeps inboxes in the target
  // (far) memory; the serving subsystem keeps its queues in DRAM so the
  // target device's write-amplification accounting stays about the values.
  X9Inbox(Machine& machine, uint32_t slots, uint32_t msg_size,
          Region region = Region::kTarget);

  uint32_t msg_size() const { return msg_size_; }

  // Producer side: claims the next ring index by CAS on the tail cursor,
  // fills the slot's payload from `payload` and publishes it by bumping
  // the slot's sequence word. Safe with SEVERAL producers: the cursor CAS
  // hands each index to exactly one producer, so fills never interleave
  // and a consumer-emptied slot can never be re-claimed for an index the
  // consumer has already passed. Returns false when the inbox is full or
  // another producer won the index (a transient condition — callers treat
  // false as "retry later" either way; the serving layer surfaces it as a
  // backpressure signal).
  bool TryWrite(Core& core, const void* payload, MsgPrestore mode);

  // Consumer side: copies the oldest message into `out` (msg_size bytes).
  // Returns false when the inbox is empty. SINGLE consumer per inbox: the
  // head cursor is advanced with a plain release store.
  bool TryRead(Core& core, void* out);

  // Host-side consumer probe: true when a published message is waiting.
  // Charges NO simulated cycles and touches NO simulated cache state — idle
  // pollers use it to spin in host time without inflating their core clock
  // (a failed TryRead costs real polling cycles, and an idle server that
  // paid them once per host-scheduler iteration would carry a clock that
  // measures the host, not the simulation). Single consumer, like TryRead:
  // a true result is stable (only the caller consumes).
  bool Peek();

  // Host-side producer probe: true when the next ring index looks free, so
  // a TryWrite is likely to succeed. Same zero-sim-cost rationale as Peek.
  // With several producers a true result is NOT a claim — a racing producer
  // can still win the index and the subsequent TryWrite returns false.
  bool CanWrite();

  // Producer fills the payload with a marker + the producer's send
  // timestamp; used by the latency harness.
  bool TryWriteStamped(Core& core, uint64_t marker, MsgPrestore mode);

  // Returns the marker and the embedded send timestamp.
  bool TryReadStamped(Core& core, uint64_t* marker, uint64_t* send_time);

  // Host-side: true when every claimed ring index has been consumed (head
  // == tail). The cluster's shutdown drain loops until every incoming
  // channel reports this, so no acknowledged message is stranded.
  bool Quiesced();

 private:
  // Slot layout: [sequence line][stamp + payload lines]. The sequence word
  // (Vyukov-style bounded-queue protocol) encodes the slot's phase: value
  // i = free for ring index i, i + 1 = index i published and unread. It
  // lives on its own line so payload publication and the sequence release
  // store do not collide.
  SimAddr SlotAddr(uint64_t i) const {
    return slots_addr_ + (i & (num_slots_ - 1)) * slot_bytes_;
  }

  Machine& machine_;
  uint32_t num_slots_;
  uint32_t msg_size_;
  uint64_t slot_bytes_;
  SimAddr slots_addr_;
  SimAddr head_addr_;  // consumer cursor (shared)
  SimAddr tail_addr_;  // producer cursor (shared)
  FuncToken fill_func_;
  FuncToken write_func_;
  FuncToken read_func_;
};

}  // namespace prestore

#endif  // SRC_MSG_X9_H_
