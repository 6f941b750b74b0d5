// §7.4.2: manual pre-store placements that DirtBuster does NOT recommend.
//  - FT fftz2: cleaning the small rewritten FFT scratch -> large slowdown
//    (paper: 3x).
//  - IS rank: pre-storing the random scatter -> no effect either way.
// Each misuse also runs under the adaptive governor (src/robust), which
// detects the rewrite-after-clean storm online and suppresses the bad hints,
// recovering most of the naive slowdown without source changes.
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "bench/run_configs.h"
#include "src/nas/ft.h"
#include "src/nas/nas_common.h"
#include "src/robust/governor.h"
#include "src/sim/harness.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

double RecoveredPct(uint64_t base, uint64_t naive, uint64_t governed) {
  if (naive <= base) {
    return 0.0;  // no gap to recover
  }
  return static_cast<double>(naive - governed) /
         static_cast<double>(naive - base) * 100.0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  (void)flags;

  std::cout << "=== §7.4.2: incorrect manual pre-store placements ===\n\n";

  // FT, then IS; each a base run, the misplaced pre-store, and the same
  // pre-store under the governor.
  struct Run {
    uint64_t cycles = 0;
    std::string governor_summary;
  };
  const auto runs = RunConfigs(2 * 3, [](size_t i) {
    Machine m(MachineA(1));
    std::optional<PrestoreGovernor> governor;
    if (i % 3 == 2) {
      governor.emplace(m);
      governor->Attach();
    }
    std::unique_ptr<NasKernel> kernel;
    if (i < 3) {
      kernel = std::make_unique<FtKernel>(
          m, NasPrestore::kOff, 1,
          i % 3 == 0 ? FtPatch::kNone : FtPatch::kFftz2Clean);
    } else {
      kernel = MakeNasKernel(
          "is", m, i % 3 == 0 ? NasPrestore::kOff : NasPrestore::kOn);
    }
    Run run;
    run.cycles = RunOnCore(m, [&](Core& c) { kernel->Run(c); });
    if (governor) {
      run.governor_summary = governor->Summary();
    }
    return run;
  });

  TextTable t({"experiment", "base_cycles", "naive_cycles", "gov_cycles",
               "naive_ratio", "gov_ratio", "recovered_%", "paper"});
  const char* const experiments[] = {"FT: clean in fftz2 (rewritten scratch)",
                                     "IS: clean in rank (random scatter)"};
  const char* const paper[] = {"3x slowdown", "no effect"};
  for (size_t row = 0; row < 2; ++row) {
    const uint64_t b = runs[3 * row].cycles;
    const uint64_t p = runs[3 * row + 1].cycles;
    const uint64_t g = runs[3 * row + 2].cycles;
    t.AddRow(experiments[row], b, p, g, static_cast<double>(p) / b,
             static_cast<double>(g) / b, RecoveredPct(b, p, g), paper[row]);
  }
  t.Print(std::cout);

  std::cout << "\nGovernor decisions for the FT misuse run:\n"
            << runs[2].governor_summary;
  std::cout << "\nDirtBuster recommends neither placement: it sees the "
               "fftz2 scratch's short re-write distance and the rank "
               "scatter's lack of sequentiality (see "
               "bench_table2_classification).\n";
  return 0;
}
