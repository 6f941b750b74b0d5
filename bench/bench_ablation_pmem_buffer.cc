// Ablation (DESIGN.md §5): size of the PMEM-internal write-combining buffer.
// The buffer bounds how far apart two 64B writebacks of the same 256B block
// may arrive and still coalesce; tiny buffers amplify even sequential
// streams under multi-threaded interleaving, huge buffers absorb scattered
// evictions and shrink the pre-store benefit.
#include <iostream>

#include "bench/listings.h"
#include "bench/run_configs.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto iters = static_cast<uint32_t>(flags.GetInt("iters", 2500));

  std::cout << "=== Ablation: PMEM internal buffer (Listing 1, 2 threads, "
               "1KB elements) ===\n\n";

  const uint32_t buffer_blocks[] = {4, 16, 64, 256, 1024};
  const auto runs = RunConfigs(5 * 2, [&](size_t i) {
    MachineConfig cfg = MachineA(2);
    cfg.target.internal_buffer_blocks = buffer_blocks[i / 2];
    return RunListing1(cfg, 2, 1024, /*clean=*/i % 2 == 1, iters);
  });

  TextTable t({"buffer_blocks", "amp_base", "amp_clean", "clean_speedup"});
  for (size_t k = 0; k < 5; ++k) {
    const Listing1Result& base = runs[2 * k];
    const Listing1Result& clean = runs[2 * k + 1];
    t.AddRow(buffer_blocks[k], base.amplification, clean.amplification,
             static_cast<double>(base.cycles) / clean.cycles);
  }
  t.Print(std::cout);
  return 0;
}
