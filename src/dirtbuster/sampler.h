// DirtBuster step 1 (§6.2.1): sampling profiler that finds write-intensive
// functions and the callchains leading to them. Stand-in for `perf record`
// on loads/stores.
#ifndef SRC_DIRTBUSTER_SAMPLER_H_
#define SRC_DIRTBUSTER_SAMPLER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/trace/trace.h"

namespace prestore {

struct SampledFunction {
  uint32_t func_id = kInvalidFunc;
  std::string name;
  std::string location;
  uint64_t sampled_loads = 0;
  uint64_t sampled_stores = 0;
  // Share of all sampled stores attributed to this function.
  double store_share = 0.0;
  // Most common interned callchains leading here, with sample counts.
  std::vector<std::pair<uint32_t, uint64_t>> top_chains;
};

struct SampleProfile {
  uint64_t sampled_loads = 0;
  uint64_t sampled_stores = 0;
  uint64_t total_instructions = 0;
  // Estimated fraction of instructions that are stores ("time issuing store
  // instructions", the paper's 10% write-intensity gate in §7.1).
  double store_instruction_fraction = 0.0;
  // Functions sorted by descending store share.
  std::vector<SampledFunction> functions;
};

class SamplingProfiler : public TraceSink {
 public:
  // Sample one memory access out of kPeriod (a prime, to avoid aliasing
  // with loop strides).
  static constexpr uint64_t kPeriod = 499;
  // Callchains kept per function, most common first.
  static constexpr uint32_t kTopChainsPerFunction = 3;

  explicit SamplingProfiler(const FunctionRegistry& registry);

  void Record(const TraceRecord& rec) override;

  // `total_instructions`: instructions retired across all cores during the
  // profiled run (used to estimate the store-instruction fraction).
  SampleProfile Finalize(uint64_t total_instructions) const;

 private:
  struct FuncCounters {
    uint64_t loads = 0;
    uint64_t stores = 0;
    std::unordered_map<uint32_t, uint64_t> chains;
  };

  struct PerCore {
    uint64_t counter = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    std::unordered_map<uint32_t, FuncCounters> funcs;
  };

  const FunctionRegistry& registry_;
  std::vector<PerCore> per_core_;  // one per core id
};

}  // namespace prestore

#endif  // SRC_DIRTBUSTER_SAMPLER_H_
