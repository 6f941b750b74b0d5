// Table 2 (§7.1): DirtBuster's classification of every workload in this
// repository — write-intensive? sequential writes? writes before fences? —
// plus the paper's example report snippets (§7.2.1 TensorEvaluator, §7.2.2
// MG psinv/resid).
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench/run_configs.h"
#include "src/dirtbuster/dirtbuster.h"
#include "src/kv/clht.h"
#include "src/kv/ycsb.h"
#include "src/msg/x9.h"
#include "src/nas/nas_common.h"
#include "src/proxy/proxies.h"
#include "src/sim/harness.h"
#include "src/tensor/training.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

struct Row {
  std::string name;
  DirtBusterReport report;
};

const char* Mark(bool b) { return b ? "yes" : "-"; }

}  // namespace

int main() {
  std::cout << "=== Table 2: DirtBuster classification of all workloads ===\n"
            << "(pytorch/numpy/lzma/c-ray/gzip rows are represented by the "
               "read-mostly proxies; see DESIGN.md substitutions)\n\n";

  // Each job builds its own machine and returns its rows, in table order.
  std::vector<std::function<std::vector<Row>()>> jobs;

  // Read-mostly proxies (the Table 2 'x' rows).
  jobs.push_back([] {
    std::vector<Row> rows;
    Machine m(MachineA(1));
    for (auto& proxy : MakeAllProxies(m)) {
      DirtBuster db(m);
      rows.push_back(
          {proxy->name(), db.Analyze([&] { proxy->Run(m.core(0)); })});
    }
    return rows;
  });

  // TensorFlow proxy — sized so that the small (240B) bias/temp tensors
  // carry a significant share of the evaluator's writes, as in the paper's
  // report (60% of the templated function's writes).
  jobs.push_back([] {
    Machine m(MachineA(1));
    TrainingConfig cfg;
    cfg.batch_size = 2;
    cfg.features = 2048;
    cfg.small_tensors_per_layer = 96;
    CnnTrainingProxy proxy(m, cfg);
    DirtBuster db(m);
    return std::vector<Row>{
        {"TensorFlow (proxy)", db.Analyze([&] { proxy.Step(m.core(0)); })}};
  });

  // X9.
  jobs.push_back([] {
    Machine m(MachineBFast(1));
    X9Inbox inbox(m, 64, 512);
    DirtBuster db(m);
    return std::vector<Row>{{"X9", db.Analyze([&] {
                               Core& core = m.core(0);
                               char drain[512];
                               for (int i = 0; i < 3000; ++i) {
                                 (void)inbox.TryWriteStamped(
                                     core, i, MsgPrestore::kOff);
                                 (void)inbox.TryRead(core, drain);
                               }
                             })}};
  });

  // KV store (CLHT index; Masstree exercises the same craft/lock pattern).
  jobs.push_back([] {
    Machine m(MachineA(2));
    ClhtMap store(m, 8192);
    YcsbConfig cfg;
    cfg.num_keys = 3000;
    cfg.value_size = 512;
    cfg.threads = 2;
    cfg.ops_per_thread = 500;
    YcsbLoad(m, store, cfg);
    DirtBuster db(m);
    return std::vector<Row>{{"KV store (CLHT, YCSB A)",
                             db.Analyze([&] { YcsbRun(m, store, cfg); })}};
  });

  // NAS kernels.
  for (const std::string& name : NasKernelNames()) {
    jobs.push_back([&name] {
      Machine m(MachineA(1));
      auto kernel = MakeNasKernel(name, m, NasPrestore::kOff);
      DirtBuster db(m);
      return std::vector<Row>{
          {"NAS " + name, db.Analyze([&] { kernel->Run(m.core(0)); })}};
    });
  }

  std::vector<Row> rows;
  for (std::vector<Row>& job_rows :
       RunConfigs(jobs.size(), [&](size_t i) { return jobs[i](); })) {
    for (Row& row : job_rows) {
      rows.push_back(std::move(row));
    }
  }
  const auto report_of = [&](const std::string& name) {
    for (const Row& row : rows) {
      if (row.name == name) {
        return row.report;
      }
    }
    return DirtBusterReport{};
  };
  const DirtBusterReport tf_report = report_of("TensorFlow (proxy)");
  const DirtBusterReport mg_report = report_of("NAS mg");

  TextTable t({"Application", "Write-Intensive", "Sequential writes",
               "Writes before fence", "Advice"});
  for (const Row& row : rows) {
    t.AddRow(row.name, Mark(row.report.write_intensive),
             Mark(row.report.sequential_writer),
             Mark(row.report.writes_before_fence),
             std::string(ToString(row.report.OverallAdvice())));
  }
  t.Print(std::cout);

  std::cout << "\n=== §7.2.1 report excerpt: TensorFlow proxy ===\n"
            << tf_report.ToString()
            << "\n=== §7.2.2 report excerpt: MG ===\n"
            << mg_report.ToString();
  return 0;
}
