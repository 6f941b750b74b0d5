// §5, Listing 3: the cost of cleaning a constantly rewritten cache line.
// The paper reports a 75x slowdown ("equivalent to the ratio between the
// latency of writing to memory vs writing to the cache").
#include <iostream>

#include "bench/listings.h"
#include "bench/run_configs.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto iters = static_cast<uint32_t>(flags.GetInt("iters", 20000));

  std::cout << "=== Listing 3 pitfall: cleaning a hot line (Machine A) ===\n"
            << "Paper: ~75x slowdown.\n\n";

  const auto cycles = RunConfigs(2, [&](size_t i) {
    return RunListing3(MachineA(1), /*clean=*/i == 1, iters);
  });
  const uint64_t base = cycles[0];
  const uint64_t with_clean = cycles[1];

  TextTable t({"variant", "cycles/iter", "slowdown"});
  t.AddRow("rewrite only", base / iters, 1.0);
  t.AddRow("rewrite + clean", with_clean / iters,
           static_cast<double>(with_clean) / static_cast<double>(base));
  t.Print(std::cout);

  std::cout << "\nThe slowdown approximates (memory write latency) / (cache "
               "write latency) = "
            << MachineA(1).target.write_latency << " / ~1 cycles.\n";
  return 0;
}
