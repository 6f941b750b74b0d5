// Ablation (DESIGN.md §5): PMEM media bandwidth vs. Problem #1 gains.
// The clean pre-store removes write amplification; that only buys runtime
// when the amplified media traffic is the bottleneck (§4.1: "the impact
// ... depends on the contention on the cached medium").
#include <iostream>

#include "bench/listings.h"
#include "bench/run_configs.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto iters = static_cast<uint32_t>(flags.GetInt("iters", 2500));

  std::cout << "=== Ablation: PMEM media bandwidth (Listing 1, 2 threads, "
               "1KB elements) ===\n"
            << "media_cpb = cycles per media byte (higher = slower "
               "media).\n\n";

  const double media_cpb[] = {0.1, 0.25, 0.45, 0.9, 1.8};
  const auto runs = RunConfigs(5 * 2, [&](size_t i) {
    MachineConfig cfg = MachineA(2);
    cfg.target.media_cycles_per_byte = media_cpb[i / 2];
    return RunListing1(cfg, 2, 1024, /*clean=*/i % 2 == 1, iters);
  });

  TextTable t({"media_cpb", "amp_base", "clean_speedup"});
  for (size_t k = 0; k < 5; ++k) {
    const Listing1Result& base = runs[2 * k];
    const Listing1Result& clean = runs[2 * k + 1];
    t.AddRow(media_cpb[k], base.amplification,
             static_cast<double>(base.cycles) / clean.cycles);
  }
  t.Print(std::cout);
  return 0;
}
