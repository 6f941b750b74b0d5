// The device layer's whole-machine digest contract: a miss-heavy trace,
// replayed under every replacement policy the LLC can be configured with
// and under both deterministic schedulers, must leave the machine in the
// recorded end state. The constants were recorded when two device models
// (an indexed fast path and a plain reference) both existed and agreed on
// every one of them. A single diverging cycle count, eviction choice, or
// media byte lands here as a digest mismatch before it can reach a
// recorded benchmark.
#include <gtest/gtest.h>

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
  cfg.read_ratio = 0.4;  // store-heavy: dirty evictions and writebacks
  cfg.zipf_theta = 0.0;  // integer-only key stream
  cfg.clean_period = 8;
  cfg.miss_mix = 0.8;
  cfg.seed = 42;
  return cfg;
}

enum class Mode { kSequential, kSliced };

uint64_t RunDigest(ReplacementPolicy policy, Mode mode, uint32_t workers) {
  MachineConfig mc = MachineA(workers);
  mc.llc.policy = policy;
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

struct Recorded {
  ReplacementPolicy policy;
  const char* name;
  uint64_t sequential;  // 2 workers, ReplaySequential
  uint64_t sliced;      // 4 workers, ReplaySliced at quantum 20000
};

constexpr Recorded kRecorded[] = {
    {ReplacementPolicy::kLru, "lru", 0xfc649d1f55060a86ULL,
     0x86dbfa093d21e541ULL},
    {ReplacementPolicy::kTreePlru, "tree-plru", 0x8fda2bb1ba86bb56ULL,
     0xb94823d4fc7f6024ULL},
    {ReplacementPolicy::kRandom, "random", 0x58266d0f70c4f030ULL,
     0xb81bacd8e5588774ULL},
    {ReplacementPolicy::kFifo, "fifo", 0x24086539423caa46ULL,
     0x8134ea836b66d217ULL},
    {ReplacementPolicy::kQuadAge, "quad-age", 0xa7e8b4543297b04dULL,
     0x0cab6ec47ea63cffULL},
};

TEST(DeviceEquiv, AllPoliciesSequentialMatchRecorded) {
  for (const Recorded& r : kRecorded) {
    EXPECT_EQ(RunDigest(r.policy, Mode::kSequential, 2), r.sequential)
        << "policy " << r.name << ": digest diverged from the recording";
  }
}

TEST(DeviceEquiv, AllPoliciesSlicedMatchRecorded) {
  for (const Recorded& r : kRecorded) {
    EXPECT_EQ(RunDigest(r.policy, Mode::kSliced, 4), r.sliced)
        << "policy " << r.name << ": digest diverged from the recording";
  }
}

}  // namespace
}  // namespace prestore
