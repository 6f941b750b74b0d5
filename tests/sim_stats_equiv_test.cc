// Striped-stats equivalence: the per-core stripe aggregation must reproduce
// the pre-rework shared-atomic accounting exactly, on the SAME concurrent
// run. EnableShadowStats mirrors every stripe bump into one shared struct
// with fetch_add (the old scheme); after the run the two must agree
// field-for-field — any missed or double-counted bump shows up here.
#include <gtest/gtest.h>

#include "src/sim/machine.h"
#include "src/sim/replay.h"

namespace prestore {
namespace {

ReplayTraceConfig EquivTraceConfig(uint32_t workers) {
  ReplayTraceConfig cfg;
  cfg.workers = workers;
  cfg.ops_per_worker = 8000;
  // Working set (keys * value_size per worker + shared arena) well past the
  // 2MB LLC so the run produces evictions for the equivalence to cover.
  cfg.keys_per_worker = 8192;
  cfg.shared_keys = 512;
  cfg.shared_fraction = 0.25;  // plenty of cross-core traffic
  cfg.value_size = 256;
  cfg.read_ratio = 0.5;
  cfg.zipf_theta = 0.0;  // integer-only key stream
  cfg.clean_period = 8;
  cfg.seed = 42;
  return cfg;
}

void ExpectStatsEqual(const MachineStats& got, const MachineStats& want) {
  EXPECT_EQ(got.llc_hits, want.llc_hits);
  EXPECT_EQ(got.llc_misses, want.llc_misses);
  EXPECT_EQ(got.llc_evictions, want.llc_evictions);
  EXPECT_EQ(got.back_invalidations, want.back_invalidations);
  EXPECT_EQ(got.interventions, want.interventions);
  EXPECT_EQ(got.wbq_stall_cycles, want.wbq_stall_cycles);
  EXPECT_EQ(got.dir_upgrades, want.dir_upgrades);
}

TEST(SimStatsEquiv, StripedAggregateMatchesSharedAtomicConcurrent) {
  Machine machine(MachineA(4));
  machine.EnableShadowStats();
  const ReplayTrace trace = GenerateReplayTrace(machine, EquivTraceConfig(4));
  const ReplayResult result = ReplayConcurrent(machine, trace);
  ASSERT_GT(result.accesses, 0u);

  const MachineStats striped = machine.hierarchy_stats();
  const MachineStats shadow = machine.ShadowStatsSnapshot();
  // The workload must actually exercise the counters being compared.
  EXPECT_GT(striped.llc_hits, 0u);
  EXPECT_GT(striped.llc_misses, 0u);
  EXPECT_GT(striped.llc_evictions, 0u);
  ExpectStatsEqual(striped, shadow);
}

TEST(SimStatsEquiv, StripedAggregateMatchesSharedAtomicSequential) {
  Machine machine(MachineA(2));
  machine.EnableShadowStats();
  const ReplayTrace trace = GenerateReplayTrace(machine, EquivTraceConfig(2));
  const ReplayResult result = ReplaySequential(machine, trace);
  ASSERT_GT(result.accesses, 0u);
  ExpectStatsEqual(machine.hierarchy_stats(), machine.ShadowStatsSnapshot());
}

TEST(SimStatsEquiv, ResetStatsClearsStripesAndShadow) {
  Machine machine(MachineA(2));
  machine.EnableShadowStats();
  const ReplayTrace trace = GenerateReplayTrace(machine, EquivTraceConfig(2));
  (void)ReplaySequential(machine, trace);
  machine.ResetStats();
  ExpectStatsEqual(machine.hierarchy_stats(), MachineStats{});
  ExpectStatsEqual(machine.ShadowStatsSnapshot(), MachineStats{});
}

}  // namespace
}  // namespace prestore
