// Figure 12 (§7.2.3): write amplification of CLHT executing YCSB A on
// Machine A. Paper: baseline climbs to ~3.8x for >=256B values; clean and
// skip hold ~1x (they eliminate amplification); with 128B values pre-storing
// halves the amplification.
#include <iostream>
#include <vector>

#include "bench/kv_bench.h"
#include "bench/run_configs.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto threads = static_cast<uint32_t>(flags.GetInt("threads", 8));
  const auto ops = static_cast<uint32_t>(flags.GetInt("ops", 600));

  std::cout << "=== Figure 12: CLHT YCSB-A write amplification, Machine A "
               "===\n"
            << "Lower is better; 4.0 is the PMEM ceiling (256B block / 64B "
               "line).\n\n";

  const std::vector<uint32_t> sizes = {64, 128, 256, 512, 1024, 4096};
  const auto runs = RunConfigs(sizes.size() * 3, [&](size_t i) {
    const uint32_t vs = sizes[i / 3];
    return RunKvBench(KvMachineA(), KvStoreKind::kClht, vs,
                      kKvPolicies[i % 3], threads,
                      vs >= 2048 ? ops / 2 : ops);
  });

  TextTable t({"value_size", "baseline", "clean", "skip"});
  for (size_t k = 0; k < sizes.size(); ++k) {
    t.AddRow(sizes[k], runs[3 * k].write_amplification,
             runs[3 * k + 1].write_amplification,
             runs[3 * k + 2].write_amplification);
  }
  t.Print(std::cout);
  return 0;
}
