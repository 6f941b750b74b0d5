// Figure 11 (§7.2.3): Masstree under YCSB A on Machine A. Paper: skip up to
// 2.5x, clean up to 1.9x over baseline.
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
  const auto ops = static_cast<uint32_t>(flags.GetInt("ops", 500));

  std::cout << "=== Figure 11: Masstree, YCSB A, Machine A ===\n"
            << "Requests per Mcycle. Higher is better.\n\n";

  const std::vector<uint32_t> sizes = {64, 256, 1024, 4096};
  const auto runs = RunConfigs(sizes.size() * 3, [&](size_t i) {
    const uint32_t vs = sizes[i / 3];
    return RunKvBench(KvMachineA(), KvStoreKind::kMasstree, vs,
                      kKvPolicies[i % 3], threads,
                      vs >= 2048 ? ops / 2 : ops);
  });

  TextTable t({"value_size", "baseline", "clean", "skip", "clean_x",
               "skip_x"});
  for (size_t k = 0; k < sizes.size(); ++k) {
    const YcsbResult& base = runs[3 * k];
    const YcsbResult& clean = runs[3 * k + 1];
    const YcsbResult& skip = runs[3 * k + 2];
    t.AddRow(sizes[k], base.ThroughputPerMcycle(),
             clean.ThroughputPerMcycle(), skip.ThroughputPerMcycle(),
             clean.ThroughputPerMcycle() / base.ThroughputPerMcycle(),
             skip.ThroughputPerMcycle() / base.ThroughputPerMcycle());
  }
  t.Print(std::cout);
  return 0;
}
