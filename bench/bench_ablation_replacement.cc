// Ablation (DESIGN.md §5): LLC replacement policy vs. Problem #1.
// Under strict LRU the evictions of a sequentially written array stay
// mostly sequential and write amplification (and hence the clean
// pre-store's benefit) largely disappears; quad-age/random policies —
// what real CPUs ship — create the problem the paper describes (§4.1).
#include <iostream>

#include "bench/listings.h"
#include "bench/run_configs.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto iters = static_cast<uint32_t>(flags.GetInt("iters", 2500));

  std::cout << "=== Ablation: LLC replacement policy (Listing 1, 2 threads, "
               "1KB elements) ===\n\n";

  struct Policy {
    const char* name;
    ReplacementPolicy policy;
  };
  const Policy policies[] = {
      {"quad-age (Intel-like)", ReplacementPolicy::kQuadAge},
      {"tree-plru", ReplacementPolicy::kTreePlru},
      {"random", ReplacementPolicy::kRandom},
      {"fifo", ReplacementPolicy::kFifo},
      {"strict-lru", ReplacementPolicy::kLru}};
  const auto runs = RunConfigs(5 * 2, [&](size_t i) {
    MachineConfig cfg = MachineA(2);
    cfg.llc.policy = policies[i / 2].policy;
    return RunListing1(cfg, 2, 1024, /*clean=*/i % 2 == 1, iters);
  });

  TextTable t({"llc_policy", "amp_base", "amp_clean", "clean_speedup"});
  for (size_t k = 0; k < 5; ++k) {
    const Listing1Result& base = runs[2 * k];
    const Listing1Result& clean = runs[2 * k + 1];
    t.AddRow(policies[k].name, base.amplification, clean.amplification,
             static_cast<double>(base.cycles) / clean.cycles);
  }
  t.Print(std::cout);
  return 0;
}
