// Figure 9 (§7.2.2): NAS benchmarks on Machine A — normalized runtime with
// the DirtBuster-recommended pre-stores (lower is better; paper: up to 40%
// faster, i.e. normalized runtime down to ~0.6-0.7).
#include <iostream>

#include <memory>
#include <vector>

#include "bench/run_configs.h"
#include "src/nas/nas_common.h"
#include "src/sim/harness.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

// The paper's NAS runs are OpenMP-parallel; four independent instances on
// four cores recreate that PMEM contention (the kernels themselves are
// single-threaded re-implementations).
constexpr uint32_t kInstances = 4;

uint64_t RunKernel(const std::string& name, NasPrestore mode) {
  MachineConfig cfg = NasBenchMachineA();
  cfg.num_cores = kInstances;
  Machine machine(cfg);
  std::vector<std::unique_ptr<NasKernel>> kernels;
  for (uint32_t i = 0; i < kInstances; ++i) {
    kernels.push_back(MakeNasKernel(name, machine, mode));
  }
  return RunParallel(machine, kInstances, [&](Core& core, uint32_t tid) {
    kernels[tid]->Run(core);
  });
}

bool HasRecommendedPatch(const std::string& name) {
  return name == "mg" || name == "ft" || name == "sp" || name == "bt" ||
         name == "ua";
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  (void)flags;

  std::cout << "=== Figure 9: NAS kernels on Machine A ===\n"
            << "Normalized runtime with pre-stores (baseline = 1.00; the "
               "paper reports down to ~0.6 on the patched kernels).\n"
            << "Only MG/FT/SP/BT/UA have DirtBuster-recommended patches; "
               "IS is write-intensive but not sequential; CG/EP/LU are not "
               "write-intensive (Table 2).\n\n";

  const std::vector<std::string>& names = NasKernelNames();
  const auto cycles = RunConfigs(names.size() * 2, [&](size_t i) -> uint64_t {
    const std::string& name = names[i / 2];
    if (!HasRecommendedPatch(name)) {
      return 0;
    }
    return RunKernel(name, i % 2 == 0 ? NasPrestore::kOff : NasPrestore::kOn);
  });

  TextTable t({"kernel", "base_cycles", "prestore_cycles", "normalized"});
  for (size_t k = 0; k < names.size(); ++k) {
    if (!HasRecommendedPatch(names[k])) {
      // DirtBuster recommends no pre-store here (Table 2): unpatched.
      t.AddRow(names[k], "-", "-", "(no patch)");
      continue;
    }
    const uint64_t base = cycles[2 * k];
    const uint64_t on = cycles[2 * k + 1];
    t.AddRow(names[k], base, on,
             static_cast<double>(on) / static_cast<double>(base));
  }
  t.Print(std::cout);
  return 0;
}
