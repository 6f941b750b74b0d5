#include "src/msg/x9.h"

#include <cstring>
#include <vector>

namespace prestore {

// Slot layout: the sequence word occupies its own cache line (so publishing
// the payload and the sequence release-store touch distinct lines, exactly as
// in X9 where the header and the message body are separate); the body — a
// stamp word plus the payload — follows on the next line(s).
//   [seq | pad...][stamp | payload ...]

X9Inbox::X9Inbox(Machine& machine, uint32_t slots, uint32_t msg_size,
                 Region region)
    : machine_(machine),
      num_slots_(slots),
      msg_size_(msg_size),
      slot_bytes_(0),
      head_addr_(machine.Alloc(64, region, 64)),
      tail_addr_(machine.Alloc(64, region, 64)),
      fill_func_{machine.registry().Intern("fill_msg", "x9_bench.c:44")},
      write_func_{machine.registry().Intern("x9_write_to_inbox", "x9.c:512")},
      read_func_{machine.registry().Intern("x9_read_from_inbox", "x9.c:433")} {
  const uint64_t ls = machine.config().line_size;
  const uint64_t body = (8 + msg_size + ls - 1) & ~(ls - 1);
  slot_bytes_ = ls + body;  // sequence line + body lines
  slots_addr_ = machine.Alloc(slot_bytes_ * slots, region, ls);
  // Seed each slot's sequence word with its own index ("free for ring
  // index i"). Construction-time initialization, host-side: no simulated
  // cycles are charged, as with every other structure set up before a
  // measured run.
  for (uint64_t i = 0; i < slots; ++i) {
    const uint64_t seq = i;
    std::memcpy(machine.HostPtr(SlotAddr(i)), &seq, sizeof(seq));
  }
}

bool X9Inbox::TryWrite(Core& core, const void* payload, MsgPrestore mode) {
  const uint64_t ls = machine_.config().line_size;
  uint64_t tail = core.AtomicLoadU64(tail_addr_);
  const SimAddr slot = SlotAddr(tail);
  // A ring index is claimed by CAS-ing the TAIL CURSOR, never by marking
  // the slot. The alternative — claim the slot, advance the cursor after
  // filling — has a lost-message window: while the claimant fills, the
  // consumer can empty this physical slot and a second producer (reading
  // the still-stale tail) re-claims the same ring index; its message then
  // sits beyond the consumer's head and is stranded until the ring wraps
  // (forever, for a client waiting on that reply). The sequence word makes
  // the full/contended cases cheap to detect first.
  if (core.AtomicLoadU64(slot) != tail) {
    return false;  // full for this index, or a producer race in progress
  }
  if (!core.CasU64(tail_addr_, tail, tail + 1)) {
    return false;  // another producer claimed this index first
  }
  const SimAddr body = slot + ls;
  {
    // fill_msg: craft the message into the (reused) slot body.
    ScopedFunction f(core, fill_func_);
    core.StoreU64(body, tail);
    core.MemCopyToSim(body + 8, payload, msg_size_);
  }
  if (mode == MsgPrestore::kDemote) {
    // Listing 8: demote the freshly written message so its publication
    // overlaps with the inbox bookkeeping below instead of stalling the
    // releasing store that marks the slot full.
    core.Prestore(body, 8 + msg_size_, PrestoreOp::kDemote);
  }
  ScopedFunction f(core, write_func_);
  // Inbox bookkeeping (shared-count / lap checks in real X9).
  core.Execute(60);
  // Release: sequence tail+1 means "index `tail` published"; the consumer
  // frees the slot for index tail + num_slots.
  core.AtomicStoreU64(slot, tail + 1);
  return true;
}

bool X9Inbox::TryRead(Core& core, void* out) {
  ScopedFunction f(core, read_func_);
  const uint64_t ls = machine_.config().line_size;
  const uint64_t head = core.AtomicLoadU64(head_addr_);
  const SimAddr slot = SlotAddr(head);
  if (core.AtomicLoadU64(slot) != head + 1) {
    return false;  // empty (or the producer is still filling the slot)
  }
  core.MemCopyFromSim(out, slot + ls + 8, msg_size_);
  core.AtomicStoreU64(slot, head + num_slots_);  // free for index head + N
  // Single consumer: the head cursor has one writer.
  core.AtomicStoreU64(head_addr_, head + 1);
  return true;
}

namespace {

// Reads the functional (host) backing directly, as Core's atomic ops write
// it: no simulated cycles, no cache state.
uint64_t HostLoadU64(Machine& machine, SimAddr addr) {
  uint64_t v;
  std::memcpy(&v, machine.HostPtr(addr), sizeof(v));
  return v;
}

}  // namespace

bool X9Inbox::Peek() {
  const uint64_t head = HostLoadU64(machine_, head_addr_);
  return HostLoadU64(machine_, SlotAddr(head)) == head + 1;
}

bool X9Inbox::CanWrite() {
  const uint64_t tail = HostLoadU64(machine_, tail_addr_);
  return HostLoadU64(machine_, SlotAddr(tail)) == tail;
}

bool X9Inbox::Quiesced() {
  return HostLoadU64(machine_, head_addr_) ==
         HostLoadU64(machine_, tail_addr_);
}

bool X9Inbox::TryWriteStamped(Core& core, uint64_t marker, MsgPrestore mode) {
  std::vector<uint8_t> payload(msg_size_, 0);
  const uint64_t stamp = core.now();
  std::memcpy(payload.data(), &marker, 8);
  std::memcpy(payload.data() + 8, &stamp, 8);
  // Fill the remainder with marker-derived bytes (a real message body).
  for (uint32_t i = 16; i < msg_size_; ++i) {
    payload[i] = static_cast<uint8_t>(marker + i);
  }
  return TryWrite(core, payload.data(), mode);
}

bool X9Inbox::TryReadStamped(Core& core, uint64_t* marker,
                             uint64_t* send_time) {
  std::vector<uint8_t> payload(msg_size_);
  if (!TryRead(core, payload.data())) {
    return false;
  }
  std::memcpy(marker, payload.data(), 8);
  std::memcpy(send_time, payload.data() + 8, 8);
  return true;
}

}  // namespace prestore
