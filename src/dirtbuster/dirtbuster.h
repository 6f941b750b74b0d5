// DirtBuster orchestrator (§6): two-pass dynamic analysis over a workload
// running on a simulated machine.
//
//   Pass 1 — sampling (perf stand-in): find write-intensive functions and
//            the callchains leading to them.
//   Pass 2 — full instrumentation (PIN stand-in) of those functions:
//            sequential-write contexts, writes-before-fence distances, and
//            per-line re-read / re-write distances.
//
// The final report names functions/locations and recommends demote / clean /
// skip / none per function, in the paper's output format.
#ifndef SRC_DIRTBUSTER_DIRTBUSTER_H_
#define SRC_DIRTBUSTER_DIRTBUSTER_H_

#include <functional>
#include <string>
#include <vector>

#include "src/core/prestore.h"
#include "src/dirtbuster/analyzer.h"
#include "src/dirtbuster/recommend.h"
#include "src/dirtbuster/sampler.h"
#include "src/sim/machine.h"

namespace prestore {

struct FunctionReport {
  std::string name;
  std::string location;
  double store_share = 0.0;  // of all sampled stores
  std::vector<std::string> top_callchains;
  FunctionAnalysis analysis;
  Advice advice = Advice::kNone;
};

struct DirtBusterReport {
  double store_instruction_fraction = 0.0;
  bool write_intensive = false;
  bool sequential_writer = false;     // any analyzed function writes seq.
  bool writes_before_fence = false;   // any analyzed function fence-bound
  std::vector<FunctionReport> functions;

  // Paper-style textual report (§7.2.1 / §7.2.2 examples).
  std::string ToString() const;

  // The strongest advice across functions (for Table 2 style summaries).
  Advice OverallAdvice() const;
};

class DirtBuster {
 public:
  // Analyses workloads running on `machine`, at its cache line size.
  explicit DirtBuster(Machine& machine) : machine_(machine) {}

  // Runs `workload` twice (it must be re-runnable) and returns the report.
  // The workload drives the machine's cores itself (e.g. via RunParallel).
  DirtBusterReport Analyze(const std::function<void()>& workload);

 private:
  uint64_t TotalIcount() const;

  Machine& machine_;
};

// Helper shared with the report writer: "16.2MB" / "240B" style size text.
std::string HumanBytes(uint64_t bytes);

}  // namespace prestore

#endif  // SRC_DIRTBUSTER_DIRTBUSTER_H_
