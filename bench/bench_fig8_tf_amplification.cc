// Figure 8 (§7.2.1): TensorFlow proxy write amplification on Machine A,
// baseline vs clean. The paper: 3.7x -> 2.7x (only partially eliminated
// because only the evaluator function is patched).
#include <iostream>

#include "bench/run_configs.h"
#include "src/sim/harness.h"
#include "src/tensor/training.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

double Amplification(uint32_t batch, TensorWritePolicy policy,
                     uint32_t steps) {
  MachineConfig cfg = MachineA(1);
  cfg.llc.size_bytes = 512 << 10;
  cfg.target.media_cycles_per_byte = 0.9;
  Machine machine(cfg);
  TrainingConfig tc;
  tc.batch_size = batch;
  tc.policy = policy;
  CnnTrainingProxy proxy(machine, tc);
  proxy.Step(machine.core(0));  // warm-up
  machine.FlushAll();
  machine.ResetStats();
  for (uint32_t s = 0; s < steps; ++s) {
    proxy.Step(machine.core(0));
  }
  machine.FlushAll();
  return machine.target().Stats().WriteAmplification();
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto steps = static_cast<uint32_t>(flags.GetInt("steps", 1));

  std::cout << "=== Figure 8: TensorFlow proxy write amplification ===\n"
            << "Paper: baseline 3.7x -> 2.7x with the clean pre-store "
               "(partial: only one function is patched; the im2col-like "
               "scratch stays unpatched).\n\n";

  const uint32_t batches[] = {1, 8, 32, 96};
  const auto amp = RunConfigs(4 * 2, [&](size_t i) {
    return Amplification(batches[i / 2],
                         i % 2 == 0 ? TensorWritePolicy::kBaseline
                                    : TensorWritePolicy::kClean,
                         steps);
  });

  TextTable t({"batch", "amp_baseline", "amp_clean"});
  for (size_t k = 0; k < 4; ++k) {
    t.AddRow(batches[k], amp[2 * k], amp[2 * k + 1]);
  }
  t.Print(std::cout);
  return 0;
}
