// Figure 14 (§7.3.1): Masstree with 1KB values on Machine B. Paper: clean
// +25% on B-fast (pre-storing halves the time in the first fence of
// masstree::put).
#include <iostream>

#include "bench/kv_bench.h"
#include "bench/run_configs.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto threads = static_cast<uint32_t>(flags.GetInt("threads", 8));
  const auto ops = static_cast<uint32_t>(flags.GetInt("ops", 400));
  const auto vs = static_cast<uint32_t>(flags.GetInt("value_size", 1024));

  std::cout << "=== Figure 14: Masstree, YCSB A, 1KB values, Machine B ===\n"
            << "Requests per Mcycle; paper: clean is 25% faster on "
               "B-fast.\n\n";

  // Rows B-fast, B-slow; each a baseline run, then a clean run.
  const auto runs = RunConfigs(4, [&](size_t i) {
    return RunKvBench(i < 2 ? MachineBFast() : MachineBSlow(),
                      KvStoreKind::kMasstree, vs,
                      i % 2 == 0 ? KvWritePolicy::kBaseline
                                 : KvWritePolicy::kClean,
                      threads, ops);
  });

  TextTable t({"machine", "baseline", "clean", "improv_%"});
  for (size_t k = 0; k < 2; ++k) {
    const YcsbResult& base = runs[2 * k];
    const YcsbResult& clean = runs[2 * k + 1];
    t.AddRow(k == 0 ? "B-fast" : "B-slow", base.ThroughputPerMcycle(),
             clean.ThroughputPerMcycle(),
             (clean.ThroughputPerMcycle() / base.ThroughputPerMcycle() - 1.0) *
                 100.0);
  }
  t.Print(std::cout);
  return 0;
}
