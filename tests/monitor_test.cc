// Online adaptive region monitor (DESIGN.md §13): scheme-rule grammar,
// split/merge behavior, verdicts on synthetic patterns, and the
// determinism contract — byte-identical region trees and scheme-action
// logs across repeated runs.
#include <gtest/gtest.h>

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

  cfg.min_regions = 50;
  cfg.max_regions = 10;
  EXPECT_NE(cfg.Validate(), "");
  cfg = MonitorConfig{};

  cfg.max_regions = 100000;  // DAMON-style hard cap at 1000
  EXPECT_NE(cfg.Validate(), "");
  cfg = MonitorConfig{};

  cfg.merge_homogeneity = 1.5;
  EXPECT_NE(cfg.Validate(), "");
  cfg = MonitorConfig{};

  cfg.rules = "bogus: writez>=1 -> clean";
  EXPECT_NE(cfg.Validate(), "");
}

TEST(MonitorConfig, ConstructorThrowsOnBadConfig) {
  Machine machine(MachineA(1));
  MonitorConfig cfg;
  cfg.probe_period = 0;
  EXPECT_THROW(RegionMonitor(machine, cfg), std::invalid_argument);
}

// ---- Scheme grammar ----

TEST(SchemeRules, ParsesAndRoundTrips) {
  const std::string text =
      "# suppress hot rewrites\n"
      "hot: cleans>=8 rewrites>=0.5 -> none suppress\n"
      "seqw: writes>=0.5 seq>=0.25 noread>=3 -> clean admit\n";
  std::vector<SchemeRule> rules;
  ASSERT_EQ(ParseSchemeRules(text, &rules), "");
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "hot");
  EXPECT_EQ(rules[0].advice, Advice::kNone);
  EXPECT_EQ(rules[0].gate, HintGate::kSuppress);
  EXPECT_EQ(rules[1].advice, Advice::kClean);
  EXPECT_EQ(rules[1].gate, HintGate::kAdmit);
  ASSERT_EQ(rules[1].predicates.size(), 3u);
  EXPECT_EQ(rules[1].predicates[2].field, SchemeField::kNoReadIntervals);
  EXPECT_TRUE(rules[1].predicates[2].at_least);
  EXPECT_DOUBLE_EQ(rules[1].predicates[2].bound, 3.0);

  // Round-trip: format then re-parse yields the same rules.
  std::vector<SchemeRule> again;
  ASSERT_EQ(ParseSchemeRules(FormatSchemeRules(rules), &again), "");
  ASSERT_EQ(again.size(), rules.size());
  for (size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(again[i].name, rules[i].name);
    EXPECT_EQ(again[i].advice, rules[i].advice);
    EXPECT_EQ(again[i].gate, rules[i].gate);
    EXPECT_EQ(again[i].predicates.size(), rules[i].predicates.size());
  }
}

TEST(SchemeRules, RejectsBadInputWithLineNumbers) {
  std::vector<SchemeRule> rules;
  EXPECT_NE(ParseSchemeRules("r: writez>=1 -> clean", &rules), "");
  EXPECT_NE(ParseSchemeRules("r: writes>=x -> clean", &rules), "");
  EXPECT_NE(ParseSchemeRules("r: writes>=1 -> shiny", &rules), "");
  EXPECT_NE(ParseSchemeRules("r: writes>=1 clean", &rules), "");  // no ->
  const std::string err =
      ParseSchemeRules("ok: writes>=1 -> clean\nbad: seq>=y -> skip", &rules);
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_TRUE(rules.empty());  // out untouched on failure
}

TEST(SchemeEngine, FirstMatchWins) {
  const SchemeConfig cfg;
  SchemeEngine engine(DefaultSchemeRules(cfg));

  // Rewrite storm through issued cleans: the backoff rule (first) fires
  // even though the write/seq pattern would also match an admit rule.
  SchemeStats storm;
  storm.write_fraction = 1.0;
  storm.seq_fraction = 1.0;
  storm.noread_intervals = 10;
  storm.samples = 100;
  storm.cleans = 50;
  storm.rewrite_rate = 0.9;
  const SchemeVerdict backoff = engine.Evaluate(storm);
  EXPECT_EQ(backoff.gate, HintGate::kSuppress);
  EXPECT_EQ(backoff.rule, 0u);

  // Sequential writer, never re-read, no rewrites: clean/admit.
  SchemeStats seq;
  seq.write_fraction = 0.9;
  seq.seq_fraction = 0.8;
  seq.noread_intervals = 5;
  seq.samples = 100;
  const SchemeVerdict clean = engine.Evaluate(seq);
  EXPECT_EQ(clean.advice, Advice::kClean);
  EXPECT_EQ(clean.gate, HintGate::kAdmit);

  // Fence-bound writer: demote beats the clean rule (ordered earlier).
  SchemeStats fenced = seq;
  fenced.fence_rate = 0.5;
  const SchemeVerdict demote = engine.Evaluate(fenced);
  EXPECT_EQ(demote.advice, Advice::kDemote);

  // Nothing matches: the default verdict.
  const SchemeVerdict none = engine.Evaluate(SchemeStats{});
  EXPECT_EQ(none.rule, kNoRule);
  EXPECT_EQ(none.gate, HintGate::kDefault);
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
  cfg.min_regions = 4;
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
  ASSERT_GE(snap.regions.size(), cfg.min_regions);
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

TEST_F(RegionMonitorTest, SuppressedRegionDropsHintsButProbes) {
  MonitorConfig cfg;
  cfg.probe_period = 8;
  const SimAddr base = machine_.Alloc(1 << 16);
  RegionMonitor monitor(machine_, cfg);
  monitor.Monitor(base, base + (1 << 16));
  // Force a suppress verdict through a rules override that always matches.
  // (Not attached: we drive AdviseHint directly.)
  MonitorConfig scfg = cfg;
  scfg.rules = "always: samples>=0 -> none suppress\n";
  RegionMonitor suppressing(machine_, scfg);
  suppressing.Monitor(base, base + (1 << 16));
  suppressing.Attach();
  Core& core = machine_.core(0);
  // One aggregation interval's worth of samples to install the verdict.
  for (uint64_t i = 0;
       i < scfg.aggregation_samples * scfg.sample_period + 64; ++i) {
    core.StoreU64(base + (i % 512) * 64, i);
  }
  ASSERT_EQ(suppressing.VerdictAt(base).gate, HintGate::kSuppress);

  uint64_t admitted = 0;
  uint64_t dropped = 0;
  for (int i = 0; i < 64; ++i) {
    if (suppressing.AdviseHint(0, base, PrestoreOp::kClean, 0) ==
        HintFate::kIssue) {
      ++admitted;
    } else {
      ++dropped;
    }
  }
  // Every probe_period-th hint leaks through as a recovery probe.
  EXPECT_EQ(admitted, 64u / cfg.probe_period);
  EXPECT_EQ(dropped, 64u - admitted);

  // Host-side sweep gating agrees, and grants cover the per-line hints a
  // sweep would otherwise double-advance the probe counter with.
  uint64_t sweep_admits = 0;
  for (int i = 0; i < 32; ++i) {
    if (suppressing.AdviseSweep(base, 256) == HintFate::kIssue) {
      ++sweep_admits;
    }
  }
  EXPECT_GT(sweep_admits, 0u);
  EXPECT_LT(sweep_admits, 32u);
}

TEST_F(RegionMonitorTest, MonitoredGovernorSuppressesByVerdict) {
  GovernorConfig gcfg;
  gcfg.policy = GovernorPolicy::kMonitored;
  PrestoreGovernor governor(machine_, gcfg);
  MonitorConfig mcfg;
  mcfg.rules = "always: samples>=0 -> none suppress\n";
  const SimAddr base = machine_.Alloc(1 << 16);
  RegionMonitor monitor(machine_, mcfg);
  monitor.Monitor(base, base + (1 << 16));
  governor.SetRegionAdvisor(&monitor);
  monitor.Attach();
  governor.Attach();

  Core& core = machine_.core(0);
  for (uint64_t i = 0;
       i < mcfg.aggregation_samples * mcfg.sample_period + 64; ++i) {
    core.StoreU64(base + (i % 512) * 64, i);
  }
  ASSERT_EQ(monitor.VerdictAt(base).gate, HintGate::kSuppress);
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
