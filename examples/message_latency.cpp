// Example: cutting message-passing latency with a demote pre-store.
//
// The X9-like inbox publishes each message with a CAS. On a machine with
// long-latency coherent memory (Machine B), the CAS stalls until the
// freshly written message leaves the CPU's private buffers — unless the
// producer demotes it first (Listing 8).
//
// Build & run:  ./build/examples/message_latency
#include <cstdio>
#include <vector>

#include "src/msg/x9.h"
#include "src/sim/harness.h"

using namespace prestore;

namespace {

uint64_t MeasureSendCost(const MachineConfig& cfg, MsgPrestore mode) {
  MachineConfig machine_cfg = cfg;
  machine_cfg.num_cores = 2;
  Machine machine(machine_cfg);
  X9Inbox inbox(machine, 64, 256);
  constexpr uint64_t kMessages = 3000;
  uint64_t producer_cycles = 0;
  RunParallel(machine, 2, [&](Core& core, uint32_t tid) {
    if (tid == 0) {
      for (uint64_t i = 0; i < kMessages; ++i) {
        // Count only the successful send call: full-inbox spinning depends
        // on the consumer's pace, not on the pre-store under study.
        while (true) {
          const uint64_t t0 = core.now();
          if (inbox.TryWriteStamped(core, i, mode)) {
            producer_cycles += core.now() - t0;
            break;
          }
          core.SpinPause(50);
        }
      }
    } else {
      std::vector<char> drain(256);
      uint64_t received = 0;
      while (received < kMessages) {
        if (inbox.TryRead(core, drain.data())) {
          ++received;
        } else {
          core.SpinPause(30);
        }
      }
    }
  });
  return producer_cycles / kMessages;
}

}  // namespace

int main() {
  std::printf("X9-style message passing, 256B messages, producer+consumer\n\n");
  struct MachineRow {
    const char* name;
    MachineConfig cfg;
  };
  for (const MachineRow& row : {MachineRow{"Machine B-fast", MachineBFast()},
                                MachineRow{"Machine B-slow", MachineBSlow()}}) {
    const uint64_t base = MeasureSendCost(row.cfg, MsgPrestore::kOff);
    const uint64_t demote = MeasureSendCost(row.cfg, MsgPrestore::kDemote);
    std::printf("%-16s baseline %5llu cyc/msg | demote %5llu cyc/msg | "
                "-%.0f%%\n",
                row.name, static_cast<unsigned long long>(base),
                static_cast<unsigned long long>(demote),
                (1.0 - static_cast<double>(demote) / base) * 100.0);
  }
  std::printf(
      "\nThe demote pre-store (one line after fill_msg) moves the message\n"
      "out of the private store buffer while the producer is still doing\n"
      "inbox bookkeeping, so the publishing CAS finds it already visible.\n");
  return 0;
}
