#include "src/dirtbuster/sampler.h"

#include <algorithm>

#include "src/sim/config.h"

namespace prestore {

SamplingProfiler::SamplingProfiler(const FunctionRegistry& registry)
    : registry_(registry), per_core_(kMaxCores) {}

void SamplingProfiler::Record(const TraceRecord& rec) {
  if (rec.kind != TraceKind::kLoad && rec.kind != TraceKind::kStore &&
      rec.kind != TraceKind::kNtStore) {
    return;
  }
  PerCore& pc = per_core_[rec.core_id];
  if (++pc.counter % kPeriod != 0) {
    return;
  }
  // Weight by the number of load/store instructions the record stands for
  // (bulk copies emit one record per line but retire size/8 instructions).
  const uint64_t weight = rec.size > 8 ? rec.size / 8 : 1;
  const bool is_store = rec.kind != TraceKind::kLoad;
  if (is_store) {
    pc.stores += weight;
  } else {
    pc.loads += weight;
  }
  if (rec.func_id == kInvalidFunc) {
    return;
  }
  FuncCounters& fc = pc.funcs[rec.func_id];
  if (is_store) {
    fc.stores += weight;
  } else {
    fc.loads += weight;
  }
  if (rec.chain_id != kInvalidChain) {
    ++fc.chains[rec.chain_id];
  }
}

SampleProfile SamplingProfiler::Finalize(uint64_t total_instructions) const {
  SampleProfile profile;
  profile.total_instructions = total_instructions;
  std::unordered_map<uint32_t, FuncCounters> merged;
  for (const PerCore& pc : per_core_) {
    profile.sampled_loads += pc.loads;
    profile.sampled_stores += pc.stores;
    for (const auto& [func, counters] : pc.funcs) {
      FuncCounters& m = merged[func];
      m.loads += counters.loads;
      m.stores += counters.stores;
      for (const auto& [chain, count] : counters.chains) {
        m.chains[chain] += count;
      }
    }
  }
  if (total_instructions > 0) {
    profile.store_instruction_fraction =
        static_cast<double>(profile.sampled_stores * kPeriod) /
        static_cast<double>(total_instructions);
  }
  for (const auto& [func, counters] : merged) {
    SampledFunction sf;
    sf.func_id = func;
    const auto& info = registry_.Function(func);
    sf.name = info.name;
    sf.location = info.location;
    sf.sampled_loads = counters.loads;
    sf.sampled_stores = counters.stores;
    sf.store_share =
        profile.sampled_stores == 0
            ? 0.0
            : static_cast<double>(counters.stores) /
                  static_cast<double>(profile.sampled_stores);
    std::vector<std::pair<uint32_t, uint64_t>> chains(counters.chains.begin(),
                                                      counters.chains.end());
    std::sort(chains.begin(), chains.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    if (chains.size() > kTopChainsPerFunction) {
      chains.resize(kTopChainsPerFunction);
    }
    sf.top_chains = std::move(chains);
    profile.functions.push_back(std::move(sf));
  }
  std::sort(profile.functions.begin(), profile.functions.end(),
            [](const SampledFunction& a, const SampledFunction& b) {
              return a.sampled_stores > b.sampled_stores;
            });
  return profile;
}

}  // namespace prestore
