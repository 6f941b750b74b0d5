// Figure 13 (§7.3.1): CLHT with 1KB values on Machine B (fast / slow FPGA).
// On B the gain comes from publishing the crafted value before the bucket
// lock's CAS, not from sequentiality. Paper: clean +52% on B-fast; gains
// are larger on the fast FPGA (the fence follows the writes closely).
#include <iostream>

#include "bench/kv_bench.h"
#include "bench/run_configs.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto threads = static_cast<uint32_t>(flags.GetInt("threads", 8));
  const auto ops = static_cast<uint32_t>(flags.GetInt("ops", 500));
  const auto vs = static_cast<uint32_t>(flags.GetInt("value_size", 1024));

  std::cout << "=== Figure 13: CLHT, YCSB A, 1KB values, Machine B ===\n"
            << "Requests per Mcycle; paper: clean is 52% faster on B-fast "
               "(non-temporal stores are not portable to this ARM machine, "
               "so only clean is evaluated, as in the paper).\n\n";

  // Rows B-fast, B-slow; each a baseline run, then a clean run.
  const auto runs = RunConfigs(4, [&](size_t i) {
    return RunKvBench(i < 2 ? MachineBFast() : MachineBSlow(),
                      KvStoreKind::kClht, vs,
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
