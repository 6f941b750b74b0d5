// §5 "Skipping the cache": with the re-read (Listing 1 line 5) present,
// skipping is ~2x slower than cleaning for small elements; without the
// re-read, skipping matches or beats cleaning.
#include <iostream>
#include <vector>

#include "bench/run_configs.h"
#include "src/sim/harness.h"
#include "src/util/cli.h"
#include "src/util/rng.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

uint64_t RunVariant(uint32_t elt_size, bool skip, bool reread,
                    uint32_t iters) {
  Machine machine(MachineA(1));
  const uint64_t n = (32ULL << 20) / elt_size;
  const SimAddr elts = machine.Alloc(n * elt_size);
  std::vector<uint8_t> payload(elt_size, 0x11);
  return RunOnCore(machine, [&](Core& core) {
    Xoshiro256 rng(3);
    uint64_t total = 0;
    for (uint32_t i = 0; i < iters; ++i) {
      const SimAddr e = elts + rng.Below(n) * elt_size;
      if (skip) {
        core.StoreNt(e, payload.data(), elt_size);
      } else {
        core.MemCopyToSim(e, payload.data(), elt_size);
        core.Prestore(e, elt_size, PrestoreOp::kClean);
      }
      if (reread) {
        total += core.LoadU64(e);
      }
    }
    (void)total;
  });
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto iters = static_cast<uint32_t>(flags.GetInt("iters", 6000));

  std::cout << "=== §5: skip vs clean, with and without the re-read ===\n"
            << "Paper: with the summation, skipping is 2x slower than "
               "cleaning (small elements); without it, skipping wins.\n\n";

  // Rows (64B, 256B) x (re-read, none); each a clean run, then a skip run.
  const uint32_t elts[] = {64, 256};
  const auto cycles = RunConfigs(2 * 2 * 2, [&](size_t i) {
    return RunVariant(elts[i / 4], /*skip=*/i % 2 == 1,
                      /*reread=*/i / 2 % 2 == 0, iters);
  });

  TextTable t({"elt_size", "reread", "clean_cycles", "skip_cycles",
               "skip/clean"});
  for (size_t row = 0; row < 4; ++row) {
    const uint64_t clean = cycles[2 * row];
    const uint64_t skip = cycles[2 * row + 1];
    t.AddRow(elts[row / 2], row % 2 == 0 ? "yes" : "no", clean, skip,
             static_cast<double>(skip) / static_cast<double>(clean));
  }
  t.Print(std::cout);
  return 0;
}
