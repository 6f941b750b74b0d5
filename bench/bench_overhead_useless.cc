// §7.4.1: pre-stores suggested by DirtBuster, executed on an architecture
// that does not benefit (Machine B: same cache-line and memory-unit size,
// no fences in NAS / TensorFlow). Paper: no gain, but overhead <= 0.3%.
//
// The adaptive governor (src/robust) detects this regime online — a
// no-amplification-headroom target plus a fence-free workload — closes its
// global gate, and suppresses the hints, recovering the (already small)
// issue overhead.
#include <iostream>
#include <optional>

#include "bench/run_configs.h"
#include "src/nas/nas_common.h"
#include "src/robust/governor.h"
#include "src/sim/harness.h"
#include "src/tensor/training.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

GovernorConfig UselessGateConfig() {
  GovernorConfig cfg;
  // Shorter evaluation window than the default so even the smaller kernels
  // close the gate early in the run.
  cfg.global_eval_window = 128;
  return cfg;
}

uint64_t RunNas(const std::string& name, NasPrestore mode, bool governed) {
  Machine machine(NasBenchMachineBFast());
  std::optional<PrestoreGovernor> governor;
  if (governed) {
    governor.emplace(machine, UselessGateConfig());
    governor->Attach();
  }
  auto kernel = MakeNasKernel(name, machine, mode);
  return RunOnCore(machine, [&](Core& core) { kernel->Run(core); });
}

uint64_t RunTf(TensorWritePolicy policy, bool governed) {
  MachineConfig cfg_b = NasBenchMachineBFast();
  cfg_b.llc.size_bytes = 512 << 10;  // same proportions as the fig7 machine
  Machine machine(cfg_b);
  std::optional<PrestoreGovernor> governor;
  if (governed) {
    governor.emplace(machine, UselessGateConfig());
    governor->Attach();
  }
  TrainingConfig cfg;
  cfg.batch_size = 8;
  cfg.policy = policy;
  CnnTrainingProxy proxy(machine, cfg);
  proxy.Step(machine.core(0));
  return RunOnCore(machine, [&](Core& core) { proxy.Step(core); });
}

double RecoveredPct(uint64_t base, uint64_t naive, uint64_t governed) {
  if (naive <= base) {
    return 0.0;  // no overhead to recover
  }
  return static_cast<double>(naive - governed) /
         static_cast<double>(naive - base) * 100.0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  (void)flags;

  std::cout << "=== §7.4.1: pre-store overhead where they cannot help "
               "(Machine B) ===\n"
            << "Paper: maximum overhead 0.3% across NAS and TensorFlow.\n\n";

  // Five NAS rows, then TensorFlow; each row a base run, a run with the
  // pre-stores, and a governed run with them.
  const char* const kernels[] = {"mg", "ft", "sp", "bt", "ua"};
  const auto cycles = RunConfigs(6 * 3, [&](size_t i) {
    const size_t variant = i % 3;
    if (i / 3 < 5) {
      return RunNas(kernels[i / 3],
                    variant == 0 ? NasPrestore::kOff : NasPrestore::kOn,
                    /*governed=*/variant == 2);
    }
    return RunTf(variant == 0 ? TensorWritePolicy::kBaseline
                              : TensorWritePolicy::kClean,
                 /*governed=*/variant == 2);
  });

  TextTable t({"workload", "base_cycles", "prestore_cycles", "gov_cycles",
               "overhead_%", "gov_overhead_%", "recovered_%"});
  uint64_t total_base = 0;
  uint64_t total_on = 0;
  uint64_t total_gov = 0;
  for (size_t row = 0; row < 6; ++row) {
    const uint64_t base = cycles[3 * row];
    const uint64_t on = cycles[3 * row + 1];
    const uint64_t gov = cycles[3 * row + 2];
    total_base += base;
    total_on += on;
    total_gov += gov;
    t.AddRow(row < 5 ? std::string("NAS ") + kernels[row]
                     : std::string("TensorFlow (proxy)"),
             base, on, gov, (static_cast<double>(on) / base - 1.0) * 100.0,
             (static_cast<double>(gov) / base - 1.0) * 100.0,
             RecoveredPct(base, on, gov));
  }
  t.Print(std::cout);
  std::cout << "\nAggregate: governor recovers "
            << RecoveredPct(total_base, total_on, total_gov)
            << "% of the useless-hint overhead (target: >= 50%).\n";
  return 0;
}
