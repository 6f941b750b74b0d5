// Ablation (DESIGN.md §5): store-buffer drain policy vs. Problem #2.
// The lazy (weakly-ordered) drain is what creates the fence stall that
// demotion hides; with an eager TSO-like drain the stores publish in the
// background on their own and demotion buys almost nothing.
#include <iostream>

#include "bench/listings.h"
#include "bench/run_configs.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto iters = static_cast<uint32_t>(flags.GetInt("iters", 2000));

  std::cout << "=== Ablation: store-buffer drain policy (Listing 2, 30 "
               "reads, B-fast device) ===\n\n";

  struct Drain {
    const char* name;
    StoreDrainPolicy policy;
  };
  const Drain drains[] = {
      {"lazy (weak, ARM-like)", StoreDrainPolicy::kLazyWeak},
      {"eager (TSO, x86-like)", StoreDrainPolicy::kEagerTso}};
  const auto cycles = RunConfigs(2 * 2, [&](size_t i) {
    MachineConfig cfg = MachineBFast(1);
    cfg.drain = drains[i / 2].policy;
    return RunListing2(cfg, /*demote=*/i % 2 == 1, 30, iters);
  });

  TextTable t({"drain_policy", "base_cycles", "demote_cycles", "improv_%"});
  for (size_t k = 0; k < 2; ++k) {
    const uint64_t base = cycles[2 * k];
    const uint64_t demote = cycles[2 * k + 1];
    t.AddRow(drains[k].name, base, demote, Improvement(base, demote));
  }
  t.Print(std::cout);
  return 0;
}
