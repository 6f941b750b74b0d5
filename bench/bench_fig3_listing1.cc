// Figure 3 (§4.1): Listing 1 on Machine A.
//  (a) runtime improvement from the clean pre-store, varying element size
//      and thread count;
//  (b) write amplification with and without cleaning.
#include <iostream>

#include "bench/listings.h"
#include "bench/run_configs.h"
#include "src/robust/governor.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto iters =
      static_cast<uint32_t>(flags.GetInt("iters", 12000));

  std::cout << "=== Figure 3: Listing 1 on Machine A (clean pre-store) ===\n"
            << "Paper shape: ~no gain at 1 thread; 2.2x at 2 threads up to "
               "3x at 5 threads for large elements.\n"
            << "Amplification: 1.8x (1T) / 3.3x (2T+) baseline -> ~1.0x "
               "with clean.\n"
            << "(Simulator note: thread differentiation is compressed -- a "
               "simulated core issues memory traffic at the rate of several "
               "real cores; see EXPERIMENTS.md.)\n\n";

  // Thread-scaling calibration: one simulated core issues memory traffic at
  // roughly the rate of several real cores (every access is serialized), so
  // the PMEM media bandwidth is scaled up for this figure to keep "1 thread
  // = unsaturated" as on the real machine. The default media bandwidth is
  // used everywhere else (where single-core runs stand in for the paper's
  // saturated multi-core runs).
  auto cfg_for = [](uint32_t threads) {
    MachineConfig cfg = MachineA(threads);
    cfg.target.media_cycles_per_byte = 0.045;  // media saturates at >=2 threads
    cfg.target.cycles_per_byte = 0.01;         // DDR-T interface stays ahead
    return cfg;
  };

  // The adaptive governor must not tax well-placed cleans: this workload
  // never rewrites a cleaned element soon and PMEM has amplification
  // headroom, so neither backoff signal fires and the governed run should
  // stay within noise (<3%) of the ungoverned clean run.
  const PrestoreHookFactory governed_factory = [](Machine& machine) {
    return std::make_unique<PrestoreGovernor>(machine);
  };

  // One row per (element size, thread count); each row is a baseline, a
  // clean and a governed-clean run.
  const uint32_t elts[] = {64, 256, 1024, 4096};
  const uint32_t thread_counts[] = {1, 2, 5};
  const auto runs = RunConfigs(4 * 3 * 3, [&](size_t i) {
    const uint32_t elt = elts[i / 9];
    const uint32_t threads = thread_counts[i / 3 % 3];
    // Keep total bytes written comparable across element sizes.
    const uint32_t n = std::max<uint32_t>(200, iters * 1024 / elt);
    switch (i % 3) {
      case 0:
        return RunListing1(cfg_for(threads), threads, elt, false, n);
      case 1:
        return RunListing1(cfg_for(threads), threads, elt, true, n);
      default:
        return RunListing1(cfg_for(threads), threads, elt, true, n,
                           64ULL << 20, governed_factory);
    }
  });

  TextTable t({"elt_size", "threads", "base_cycles", "clean_cycles",
               "gov_cycles", "speedup", "gov_overhead_%", "amp_base",
               "amp_clean"});
  double worst_gov_overhead = 0.0;
  for (size_t row = 0; row < 4 * 3; ++row) {
    const Listing1Result& base = runs[3 * row];
    const Listing1Result& clean = runs[3 * row + 1];
    const Listing1Result& governed = runs[3 * row + 2];
    const double gov_overhead =
        (static_cast<double>(governed.cycles) / clean.cycles - 1.0) * 100.0;
    worst_gov_overhead = std::max(worst_gov_overhead, gov_overhead);
    t.AddRow(elts[row / 3], thread_counts[row % 3], base.cycles, clean.cycles,
             governed.cycles,
             static_cast<double>(base.cycles) /
                 static_cast<double>(clean.cycles),
             gov_overhead, base.amplification, clean.amplification);
  }
  t.Print(std::cout);
  std::cout << "\nWorst governed-vs-clean overhead: " << worst_gov_overhead
            << "% (must stay within 3%: the governor leaves beneficial "
               "cleans alone).\n";
  return 0;
}
