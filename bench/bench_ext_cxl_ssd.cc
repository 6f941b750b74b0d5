// Extension beyond the paper's evaluated hardware: the same Listing-1
// experiment on a CXL-SSD-like device (Table 1: 256B/512B internal blocks
// in current technologies). With 512B blocks the write-amplification
// ceiling doubles to 8x, and clean pre-stores matter even more.
#include <iostream>

#include "bench/listings.h"
#include "bench/run_configs.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto iters = static_cast<uint32_t>(flags.GetInt("iters", 8000));

  std::cout << "=== Extension: Listing 1 on a CXL-SSD-like device (512B "
               "internal blocks) ===\n"
            << "The paper motivates pre-stores with exactly this class of "
               "device (§1, Table 1); the amplification ceiling is 8x.\n\n";

  // Rows (element size) x (1, 4 threads); each a baseline, then a clean run.
  const uint32_t elts[] = {64, 512, 2048};
  const uint32_t thread_counts[] = {1, 4};
  const auto runs = RunConfigs(3 * 2 * 2, [&](size_t i) {
    const uint32_t elt = elts[i / 4];
    const uint32_t threads = thread_counts[i / 2 % 2];
    const uint32_t n = std::max<uint32_t>(200, iters * 1024 / elt);
    return RunListing1(MachineACxlSsd(threads), threads, elt,
                       /*clean=*/i % 2 == 1, n);
  });

  TextTable t({"elt_size", "threads", "amp_base", "amp_clean",
               "clean_speedup"});
  for (size_t row = 0; row < 3 * 2; ++row) {
    const Listing1Result& base = runs[2 * row];
    const Listing1Result& clean = runs[2 * row + 1];
    t.AddRow(elts[row / 2], thread_counts[row % 2], base.amplification,
             clean.amplification,
             static_cast<double>(base.cycles) / clean.cycles);
  }
  t.Print(std::cout);
  return 0;
}
