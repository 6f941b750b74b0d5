// Online adaptive region monitor (DESIGN.md §13): the four fixed verdict
// rules, split/merge behavior, verdicts on synthetic patterns, and the
// determinism contract — byte-identical region trees and verdict action
// logs across repeated runs.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/monitor/region_monitor.h"
#include "src/monitor/scheme.h"
#include "src/robust/governor.h"
#include "src/sim/harness.h"
#include "src/sim/machine.h"
#include "src/sim/replay.h"

namespace prestore {
namespace {

// ---- Config validation ----

TEST(MonitorConfig, ValidatesBounds) {
  MonitorConfig cfg;
  EXPECT_EQ(cfg.Validate(), "");

  cfg.sample_period = 0;
  EXPECT_NE(cfg.Validate(), "");
  cfg = MonitorConfig{};

  cfg.max_regions = RegionMonitor::kMinRegions - 1;
  EXPECT_NE(cfg.Validate(), "");
  cfg = MonitorConfig{};

  cfg.max_regions = 100000;  // DAMON-style hard cap at 1000
  EXPECT_NE(cfg.Validate(), "");
}

TEST(MonitorConfig, ConstructorThrowsOnBadConfig) {
  Machine machine(MachineA(1));
  MonitorConfig cfg;
  cfg.aggregation_samples = 0;
  EXPECT_THROW(RegionMonitor(machine, cfg), std::invalid_argument);
}

// ---- The four rules ----

TEST(SchemeRules, FirstMatchWins) {
  // Rewrite storm through issued cleans: the backoff rule (first) fires
  // even though the write/seq pattern would also match an admit rule.
  SchemeStats storm;
  storm.write_fraction = 1.0;
  storm.seq_fraction = 1.0;
  storm.noread_intervals = 10;
  storm.samples = 100;
  storm.cleans = 50;
  storm.rewrite_rate = 0.9;
  const SchemeVerdict backoff = EvaluateSchemeRules(storm);
  EXPECT_EQ(backoff.gate, HintGate::kSuppress);
  EXPECT_EQ(backoff.rule, kRuleRewrittenWhileResident);

  // Sequential writer, never re-read, no rewrites: clean/admit.
  SchemeStats seq;
  seq.write_fraction = 0.9;
  seq.seq_fraction = 0.8;
  seq.noread_intervals = 5;
  seq.samples = 100;
  const SchemeVerdict clean = EvaluateSchemeRules(seq);
  EXPECT_EQ(clean.advice, Advice::kClean);
  EXPECT_EQ(clean.gate, HintGate::kAdmit);
  EXPECT_EQ(clean.rule, kRuleSeqWritesNoReread);

  // Fence-bound writer: demote beats the clean rule (ordered earlier).
  SchemeStats fenced = seq;
  fenced.fence_rate = 0.5;
  const SchemeVerdict demote = EvaluateSchemeRules(fenced);
  EXPECT_EQ(demote.advice, Advice::kDemote);
  EXPECT_EQ(demote.rule, kRuleWritesBeforeFence);

  // Nothing matches: the default verdict.
  const SchemeVerdict none = EvaluateSchemeRules(SchemeStats{});
  EXPECT_EQ(none.rule, kNoRule);
  EXPECT_EQ(none.gate, HintGate::kDefault);
}

TEST(SchemeRules, GridMatchesRecordedDigest) {
  // Every field a rule reads at 0, one ulp below its threshold, at it, one
  // ulp above it, and at a large value: 5^8 stats, each verdict folded into
  // one FNV-1a digest. The digest was recorded from the rule interpreter
  // these four rules replaced, evaluating its default rules at its default
  // thresholds, so any drift in a threshold, a comparison or the rule
  // order shows here.
  const auto around = [](double threshold) {
    const double inf = std::numeric_limits<double>::infinity();
    return std::array<double, 5>{0.0, std::nextafter(threshold, -inf),
                                 threshold, std::nextafter(threshold, inf),
                                 1e9};
  };
  uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  // Field order: cleans varies slowest, noread_intervals fastest.
  const std::array<std::array<double, 5>, 8> grid = {
      around(kSchemeMinIntervalCleans),  around(kSchemeBackoffRewriteRate),
      around(kSchemeBackoffUselessRate), around(kSchemeMinIntervalSamples),
      around(kSchemeMinWriteFraction),   around(kSchemeFenceRate),
      around(kSchemeSeqFraction),        around(kSchemeNoReadIntervals)};
  uint64_t per_rule[5] = {};
  for (uint32_t n = 0; n < 390625; ++n) {  // 5^8
    double v[8];
    uint32_t rest = n;
    for (int f = 7; f >= 0; --f) {
      v[f] = grid[f][rest % 5];
      rest /= 5;
    }
    SchemeStats stats;
    stats.cleans = v[0];
    stats.rewrite_rate = v[1];
    stats.useless_rate = v[2];
    stats.samples = v[3];
    stats.write_fraction = v[4];
    stats.fence_rate = v[5];
    stats.seq_fraction = v[6];
    stats.noread_intervals = v[7];
    const SchemeVerdict verdict = EvaluateSchemeRules(stats);
    mix(static_cast<uint64_t>(verdict.advice));
    mix(static_cast<uint64_t>(verdict.gate));
    mix(verdict.rule);
    ++per_rule[verdict.rule == kNoRule ? 4 : verdict.rule];
  }
  EXPECT_EQ(h, 0x4d25b6cd023ee7a7ULL);
  // Every rule, and the no-match default, is reached.
  EXPECT_EQ(per_rule[0], 140625u);
  EXPECT_EQ(per_rule[1], 56250u);
  EXPECT_EQ(per_rule[2], 41850u);
  EXPECT_EQ(per_rule[3], 10044u);
  EXPECT_EQ(per_rule[4], 141856u);
}

// ---- Region lifecycle ----

class RegionMonitorTest : public ::testing::Test {
 protected:
  RegionMonitorTest() : machine_(MachineA(1)) {}
  Machine machine_;
};

TEST_F(RegionMonitorTest, MonitorRejectsOverlapAndRequiresRanges) {
  RegionMonitor monitor(machine_);
  monitor.Monitor(0x100000000ULL, 0x100010000ULL);
  EXPECT_THROW(monitor.Monitor(0x100008000ULL, 0x100020000ULL),
               std::invalid_argument);
  RegionMonitor empty(machine_);
  EXPECT_THROW(empty.Attach(), std::logic_error);
}

TEST_F(RegionMonitorTest, SplitsStayBoundedAndCoverTheRange) {
  MonitorConfig cfg;
  cfg.sample_period = 4;
  cfg.aggregation_samples = 64;
  cfg.max_regions = 16;
  const SimAddr base = machine_.Alloc(1 << 20);
  RegionMonitor monitor(machine_, cfg);
  monitor.Monitor(base, base + (1 << 20));
  monitor.Attach();

  Core& core = machine_.core(0);
  // A hot stripe and a cold remainder: enough intervals for several
  // split/merge rounds.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 512; ++i) {
      core.StoreU64(base + (i % 128) * 64, i);
    }
    for (int i = 0; i < 64; ++i) {
      core.LoadU64(base + (512 << 10) + i * 4096);
    }
  }

  const RegionMonitor::Snapshot snap = monitor.TakeSnapshot();
  EXPECT_GT(snap.intervals, 0u);
  EXPECT_GT(snap.splits, 0u);
  ASSERT_GE(snap.regions.size(), RegionMonitor::kMinRegions);
  ASSERT_LE(snap.regions.size(), cfg.max_regions);
  // Regions tile the monitored range: sorted, disjoint, line-aligned.
  uint64_t covered = 0;
  for (size_t i = 0; i < snap.regions.size(); ++i) {
    const MonitorRegion& r = snap.regions[i];
    EXPECT_LT(r.start, r.end);
    EXPECT_EQ(r.start % 64, 0u);
    if (i > 0) {
      EXPECT_GE(r.start, snap.regions[i - 1].end);
    }
    covered += r.end - r.start;
  }
  EXPECT_EQ(covered, 1u << 20);
}

// The Listing-3 misuse on one 32 KiB buffer: store a line, clean it, and
// store it again a lap later while it is still resident. Runs one
// aggregation interval (plus a margin), so the default
// rewritten-while-resident rule has installed its suppress verdict.
void RunResidentRewriteStorm(Machine& machine, SimAddr base,
                             const MonitorConfig& cfg) {
  Core& core = machine.core(0);
  for (uint64_t i = 0; i < cfg.aggregation_samples * cfg.sample_period + 64;
       ++i) {
    const SimAddr line = base + (i % 512) * 64;
    core.StoreU64(line, i);
    core.Prestore(line, 64, PrestoreOp::kClean);
  }
}

TEST_F(RegionMonitorTest, SuppressedRegionDropsHintsButProbes) {
  const MonitorConfig cfg;
  const SimAddr base = machine_.Alloc(1 << 16);
  RegionMonitor monitor(machine_, cfg);
  monitor.Monitor(base, base + (1 << 16));
  monitor.Attach();
  RunResidentRewriteStorm(machine_, base, cfg);
  ASSERT_EQ(monitor.VerdictAt(base).gate, HintGate::kSuppress);
  ASSERT_EQ(monitor.VerdictAt(base).rule, kRuleRewrittenWhileResident);

  // No governor is attached: drive AdviseHint directly.
  uint64_t admitted = 0;
  uint64_t dropped = 0;
  for (int i = 0; i < 64; ++i) {
    if (monitor.AdviseHint(0, base, PrestoreOp::kClean, 0) ==
        HintFate::kIssue) {
      ++admitted;
    } else {
      ++dropped;
    }
  }
  // Every kProbePeriod-th hint leaks through as a recovery probe.
  EXPECT_EQ(admitted, 64u / RegionMonitor::kProbePeriod);
  EXPECT_EQ(dropped, 64u - admitted);

  // Host-side sweep gating agrees, and grants cover the per-line hints a
  // sweep would otherwise double-advance the probe counter with.
  uint64_t sweep_admits = 0;
  for (int i = 0; i < 32; ++i) {
    if (monitor.AdviseSweep(base, 256) == HintFate::kIssue) {
      ++sweep_admits;
    }
  }
  EXPECT_GT(sweep_admits, 0u);
  EXPECT_LT(sweep_admits, 32u);
}

TEST_F(RegionMonitorTest, MonitoredGovernorSuppressesByVerdict) {
  PrestoreGovernor governor(machine_);
  const MonitorConfig mcfg;
  const SimAddr base = machine_.Alloc(1 << 16);
  RegionMonitor monitor(machine_, mcfg);
  monitor.Monitor(base, base + (1 << 16));
  governor.SetRegionAdvisor(&monitor);
  monitor.Attach();
  governor.Attach();

  RunResidentRewriteStorm(machine_, base, mcfg);
  ASSERT_EQ(monitor.VerdictAt(base).gate, HintGate::kSuppress);
  Core& core = machine_.core(0);
  for (int i = 0; i < 256; ++i) {
    core.Prestore(base + (i % 512) * 64, 64, PrestoreOp::kClean);
  }
  const PrestoreGovernor::Snapshot snap = governor.TakeSnapshot();
  EXPECT_GT(snap.suppressed_by_monitor, 0u);
}

// ---- Determinism ----

struct MonitoredReplay {
  uint64_t machine_digest = 0;
  uint64_t monitor_digest = 0;
  std::string actions;
};

MonitoredReplay RunMonitoredSliced() {
  Machine machine(MachineA(4));
  ReplayTraceConfig tcfg;
  tcfg.workers = 4;
  tcfg.ops_per_worker = 20000;
  tcfg.zipf_theta = 0.0;  // integer-only key stream (host-portable)
  const ReplayTrace trace = GenerateReplayTrace(machine, tcfg);

  MonitorConfig mcfg;
  mcfg.sample_period = 16;
  mcfg.aggregation_samples = 256;
  RegionMonitor monitor(machine, mcfg);
  monitor.Monitor(kTargetBase, kTargetBase + machine.target_allocated());
  monitor.Attach();

  ReplaySliced(machine, trace);

  MonitoredReplay out;
  out.machine_digest = DigestMachine(machine, tcfg.workers);
  out.monitor_digest = monitor.DigestState();
  for (const MonitorAction& a : monitor.RecentActions()) {
    out.actions += a.ToString();
    out.actions += '\n';
  }
  return out;
}

TEST(MonitorDeterminism, ByteIdenticalAcrossRuns) {
  const MonitoredReplay a = RunMonitoredSliced();
  const MonitoredReplay b = RunMonitoredSliced();  // same run repeated

  EXPECT_EQ(a.machine_digest, b.machine_digest);
  EXPECT_EQ(a.monitor_digest, b.monitor_digest);
  EXPECT_EQ(a.actions, b.actions);

  EXPECT_FALSE(a.actions.empty());  // the run actually exercised the log
}

TEST(MonitorDeterminism, SamplerDoesNotPerturbUnmonitoredDigest) {
  // Attaching and detaching a sampler must leave no trace in a later
  // unmonitored replay on the same machine config (countdown only resets
  // when the period changes; unrelated RefreshFastPathFlags calls keep it).
  const auto digest = [](bool monitored) {
    Machine machine(MachineA(2));
    ReplayTraceConfig tcfg;
    tcfg.workers = 2;
    tcfg.ops_per_worker = 10000;
    tcfg.zipf_theta = 0.0;
    const ReplayTrace trace = GenerateReplayTrace(machine, tcfg);
    RegionMonitor monitor(machine);
    if (monitored) {
      monitor.Monitor(kTargetBase, kTargetBase + machine.target_allocated());
      monitor.Attach();
    }
    ReplaySequential(machine, trace);
    return DigestMachine(machine, tcfg.workers);
  };
  // The sampler adds zero simulated cost: monitored and unmonitored replays
  // of the same trace land on the same machine end state.
  EXPECT_EQ(digest(false), digest(true));
}

}  // namespace
}  // namespace prestore
