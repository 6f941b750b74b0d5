// Figure 7 (§7.2.1): TensorFlow training proxy on Machine A — performance
// improvement of cleaning vs skipping in the templated tensor evaluator,
// as a function of the training batch size.
#include <iostream>

#include "bench/run_configs.h"
#include "src/sim/harness.h"
#include "src/tensor/training.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

uint64_t RunTraining(uint32_t batch, TensorWritePolicy policy,
                     uint32_t steps) {
  // Single-instance calibration (see EXPERIMENTS.md): the paper's training
  // run keeps all cores busy; the LLC and media bandwidth are scaled to the
  // single simulated core's traffic so that the PMEM is the bottleneck.
  MachineConfig cfg = MachineA(1);
  cfg.llc.size_bytes = 512 << 10;
  cfg.target.media_cycles_per_byte = 0.9;
  Machine machine(cfg);
  TrainingConfig tc;
  tc.batch_size = batch;
  tc.policy = policy;
  CnnTrainingProxy proxy(machine, tc);
  // Warm-up step (first-touch effects), then measured steps.
  proxy.Step(machine.core(0));
  return RunOnCore(machine, [&](Core& core) {
    for (uint32_t s = 0; s < steps; ++s) {
      proxy.Step(core);
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto steps = static_cast<uint32_t>(flags.GetInt("steps", 1));

  std::cout << "=== Figure 7: TensorFlow proxy, Machine A ===\n"
            << "Paper shape: clean +47% at batch 1 declining to +20% at "
               "large batches; skip is a ~20% LOSS (evalPacket re-reads "
               "its own output).\n\n";

  const uint32_t batches[] = {1, 8, 32, 96};
  const TensorWritePolicy policies[] = {TensorWritePolicy::kBaseline,
                                        TensorWritePolicy::kClean,
                                        TensorWritePolicy::kSkip};
  const auto cycles = RunConfigs(4 * 3, [&](size_t i) {
    return RunTraining(batches[i / 3], policies[i % 3], steps);
  });

  TextTable t({"batch", "base_cycles", "clean_improv_%", "skip_improv_%"});
  for (size_t k = 0; k < 4; ++k) {
    const uint64_t base = cycles[3 * k];
    const uint64_t clean = cycles[3 * k + 1];
    const uint64_t skip = cycles[3 * k + 2];
    t.AddRow(batches[k], base,
             (static_cast<double>(base) / clean - 1.0) * 100.0,
             (static_cast<double>(base) / skip - 1.0) * 100.0);
  }
  t.Print(std::cout);
  return 0;
}
