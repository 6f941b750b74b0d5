// The device layer's whole-machine digest contract: the production devices
// (closed-form device charging, batched writeback trains, hinted PMEM block
// index) must produce BIT-IDENTICAL simulated end state to the reference
// devices (naive event-at-a-time meters, src/sim/reference_device.h) —
// across every replacement policy the LLC can be configured with and under
// both deterministic schedulers. A single diverging cycle count, eviction
// choice, or media byte lands here as a digest mismatch before it can reach
// a recorded benchmark.
#include <gtest/gtest.h>

#include <cstdio>

#include "src/sim/config.h"
#include "src/sim/machine.h"
#include "src/sim/replay.h"

namespace prestore {
namespace {

// Miss-heavy, store-heavy, clean-carrying trace: the private arena's cold
// tail busts the 2MB LLC so the run spends most of its time on the
// miss/eviction/writeback legs that drive the devices, while the hot head
// keeps enough hits flowing to interleave buffered and media traffic.
ReplayTraceConfig MissyTrace(uint32_t workers) {
  ReplayTraceConfig cfg;
  cfg.workers = workers;
  cfg.ops_per_worker = 12000;
  cfg.keys_per_worker = 16384;  // 4 MiB of private values per worker
  cfg.shared_keys = 256;
  cfg.shared_fraction = 0.1;
  cfg.value_size = 256;
  cfg.read_ratio = 0.4;  // store-heavy: dirty evictions and trains
  cfg.zipf_theta = 0.0;  // integer-only key stream
  cfg.clean_period = 8;
  cfg.miss_mix = 0.8;
  cfg.seed = 42;
  return cfg;
}

enum class Mode { kSequential, kSliced };

uint64_t RunDigest(ReplacementPolicy policy, bool reference, Mode mode,
                   uint32_t workers) {
  MachineConfig mc = MachineA(workers);
  mc.llc.policy = policy;
  if (reference) {
    mc.dram.reference_impl = true;
    mc.target.reference_impl = true;
  }
  Machine machine(mc);
  const ReplayTrace trace = GenerateReplayTrace(machine, MissyTrace(workers));
  if (mode == Mode::kSliced) {
    ReplaySlicedOptions options;
    options.quantum = 20000;
    ReplaySliced(machine, trace, options);
  } else {
    ReplaySequential(machine, trace);
  }
  return DigestMachine(machine, workers);
}

constexpr ReplacementPolicy kAllPolicies[] = {
    ReplacementPolicy::kLru, ReplacementPolicy::kTreePlru,
    ReplacementPolicy::kRandom, ReplacementPolicy::kFifo,
    ReplacementPolicy::kQuadAge,
};

const char* PolicyName(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kLru:
      return "lru";
    case ReplacementPolicy::kTreePlru:
      return "tree-plru";
    case ReplacementPolicy::kRandom:
      return "random";
    case ReplacementPolicy::kFifo:
      return "fifo";
    case ReplacementPolicy::kQuadAge:
      return "quad-age";
  }
  return "?";
}

TEST(DeviceEquiv, FastMatchesReferenceAllPoliciesSequential) {
  for (ReplacementPolicy policy : kAllPolicies) {
    const uint64_t fast =
        RunDigest(policy, /*reference=*/false, Mode::kSequential, 2);
    const uint64_t ref =
        RunDigest(policy, /*reference=*/true, Mode::kSequential, 2);
    EXPECT_EQ(fast, ref) << "policy " << PolicyName(policy)
                         << ": fast-path digest diverged from reference";
  }
}

TEST(DeviceEquiv, FastMatchesReferenceAllPoliciesSliced) {
  for (ReplacementPolicy policy : kAllPolicies) {
    const uint64_t fast =
        RunDigest(policy, /*reference=*/false, Mode::kSliced, 4);
    const uint64_t ref =
        RunDigest(policy, /*reference=*/true, Mode::kSliced, 4);
    EXPECT_EQ(fast, ref) << "policy " << PolicyName(policy)
                         << ": fast-path digest diverged from reference";
  }
}

}  // namespace
}  // namespace prestore
