// §7.3.2: X9 message passing on Machine B — producer send cost with and
// without the demote pre-store after fill_msg (Listing 8). Paper: the
// demote cuts the message send latency by 62% on B-fast and 40% on B-slow
// (the CAS no longer waits for the private message stores to publish).
#include <iostream>

#include "bench/run_configs.h"
#include "src/msg/x9.h"
#include "src/sim/harness.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

uint64_t ProducerCyclesPerSend(const MachineConfig& cfg, uint32_t msg_size,
                               MsgPrestore mode, uint64_t messages) {
  MachineConfig machine_cfg = cfg;
  machine_cfg.num_cores = 2;
  Machine machine(machine_cfg);
  X9Inbox inbox(machine, 64, msg_size);
  uint64_t producer_cycles = 0;
  RunParallel(machine, 2, [&](Core& core, uint32_t tid) {
    if (tid == 0) {
      for (uint64_t i = 0; i < messages; ++i) {
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
      std::vector<char> drain(msg_size);
      uint64_t received = 0;
      while (received < messages) {
        if (inbox.TryRead(core, drain.data())) {
          ++received;
        } else {
          core.SpinPause(30);
        }
      }
    }
  });
  return producer_cycles / messages;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto messages =
      static_cast<uint64_t>(flags.GetInt("messages", 4000));
  const auto msg_size = static_cast<uint32_t>(flags.GetInt("msg_size", 512));

  std::cout << "=== §7.3.2: X9 message send cost, Machine B ===\n"
            << "Producer cycles per message (lower is better). Paper: "
               "demote cuts latency 62% (B-fast) / 40% (B-slow).\n\n";

  // Rows B-fast, B-slow; each a baseline run, then a demote run.
  const auto cycles = RunConfigs(4, [&](size_t i) {
    return ProducerCyclesPerSend(i < 2 ? MachineBFast() : MachineBSlow(),
                                 msg_size,
                                 i % 2 == 0 ? MsgPrestore::kOff
                                            : MsgPrestore::kDemote,
                                 messages);
  });

  TextTable t({"machine", "baseline", "demote", "reduction_%"});
  for (size_t k = 0; k < 2; ++k) {
    const uint64_t base = cycles[2 * k];
    const uint64_t demote = cycles[2 * k + 1];
    t.AddRow(k == 0 ? "B-fast" : "B-slow", base, demote,
             (1.0 - static_cast<double>(demote) / base) * 100.0);
  }
  t.Print(std::cout);
  return 0;
}
