// Figure 5 (§4.2): Listing 2 on Machine B — relative improvement from
// demoting dirty data before a fence, varying the number of L1 reads
// between the write and the fence, for the fast and slow FPGA configs.
#include <iostream>
#include <vector>

#include "bench/listings.h"
#include "bench/run_configs.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto iters = static_cast<uint32_t>(flags.GetInt("iters", 2000));

  std::cout << "=== Figure 5: Listing 2 on Machine B (demote pre-store) ===\n"
            << "Paper shape: ~0% at n=0, hump up to ~65%, back to ~0% for "
               "large n; the slow FPGA peaks at a larger read window.\n\n";

  // Per read window: B-fast base, B-fast demote, B-slow base, B-slow demote.
  const std::vector<uint32_t> windows = {0,  5,   10,  20,  40,
                                         80, 160, 320, 640, 1280};
  const auto cycles = RunConfigs(windows.size() * 4, [&](size_t i) {
    const uint32_t n = windows[i / 4];
    const uint32_t it = n >= 320 ? iters / 4 : iters;
    const MachineConfig cfg = i % 4 < 2 ? MachineBFast(1) : MachineBSlow(1);
    return RunListing2(cfg, /*demote=*/i % 2 == 1, n, it);
  });

  TextTable t({"n_reads", "B-fast_improv_%", "B-slow_improv_%"});
  for (size_t k = 0; k < windows.size(); ++k) {
    const uint64_t* c = &cycles[4 * k];
    t.AddRow(windows[k], Improvement(c[0], c[1]), Improvement(c[2], c[3]));
  }
  t.Print(std::cout);
  return 0;
}
