// The adaptive pre-store governor: per-region backoff under the Listing-3
// rewrite storm, recovery when the storm stops, and the global
// useless-overhead gate on no-headroom devices.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/robust/governor.h"
#include "src/robust/governor_policy.h"
#include "src/sim/harness.h"
#include "src/sim/machine.h"

namespace prestore {
namespace {

GovernorConfig FastConfig() {
  GovernorConfig cfg;
  cfg.window_hints = 8;
  cfg.probe_period = 16;
  cfg.probe_window = 4;
  cfg.global_eval_window = 64;
  // One hot window suffices in these tests; the burst-debounce default is
  // exercised by RegionBackoffPolicy.ConfirmWindowsDebounceLoneBurst.
  cfg.backoff_confirm_windows = 1;
  return cfg;
}

// ---- Pure policy ----

TEST(RegionBackoffPolicy, EntersBackoffOnRewriteStorm) {
  GovernorConfig cfg = FastConfig();
  RegionBackoff region;
  // Every admitted hint is followed by a rewrite of the cleaned line. The
  // completed window is evaluated at the start of the NEXT hint (feedback
  // for the last hint must have a chance to arrive), so the storm is shut
  // down on hint window_hints + 1.
  for (uint32_t i = 0; i < cfg.window_hints; ++i) {
    EXPECT_TRUE(region.OnHint(cfg, cfg.backoff_rewrite_rate));
    region.OnRewrite();
  }
  EXPECT_EQ(region.state(), RegionBackoff::State::kOpen);
  EXPECT_FALSE(region.OnHint(cfg, cfg.backoff_rewrite_rate));
  EXPECT_EQ(region.state(), RegionBackoff::State::kBackoff);
  EXPECT_EQ(region.backoffs(), 1u);
  // Subsequent hints are suppressed (modulo probes).
  uint32_t admitted = 0;
  for (uint32_t i = 0; i < cfg.probe_period - 1; ++i) {
    admitted += region.OnHint(cfg, cfg.backoff_rewrite_rate) ? 1 : 0;
  }
  EXPECT_EQ(admitted, 0u);
}

TEST(RegionBackoffPolicy, ProbesAndReopensWhenStormStops) {
  GovernorConfig cfg = FastConfig();
  RegionBackoff region;
  uint32_t storm = 0;
  while (region.state() == RegionBackoff::State::kOpen && storm < 1000) {
    if (region.OnHint(cfg, cfg.backoff_rewrite_rate)) {
      region.OnRewrite();
    }
    ++storm;
  }
  ASSERT_EQ(region.state(), RegionBackoff::State::kBackoff);
  // The workload stops rewriting: probes observe a clean regime and the
  // region reopens. Two probe windows may be needed because rewrites of the
  // final pre-backoff hints can land on the first probes.
  uint32_t hints = 0;
  while (region.state() == RegionBackoff::State::kBackoff && hints < 10000) {
    region.OnHint(cfg, cfg.backoff_rewrite_rate);
    ++hints;
  }
  EXPECT_EQ(region.state(), RegionBackoff::State::kOpen);
  EXPECT_GE(region.reopens(), 1u);
  EXPECT_GT(region.suppressed(), 0u);
}

TEST(RegionBackoffPolicy, StaysOpenOnCleanRegime) {
  GovernorConfig cfg = FastConfig();
  RegionBackoff region;
  for (uint32_t i = 0; i < 1000; ++i) {
    EXPECT_TRUE(region.OnHint(cfg, cfg.backoff_rewrite_rate));
  }
  EXPECT_EQ(region.state(), RegionBackoff::State::kOpen);
  EXPECT_EQ(region.suppressed(), 0u);
}

TEST(RegionBackoffPolicy, ConfirmWindowsDebounceLoneBurst) {
  GovernorConfig cfg = FastConfig();
  cfg.backoff_confirm_windows = 2;
  RegionBackoff region;
  // One window saturated with rewrites (a multi-line element's burst), then
  // a quiet regime: a single hot window must not trip the backoff.
  for (uint32_t i = 0; i < cfg.window_hints; ++i) {
    EXPECT_TRUE(region.OnHint(cfg, cfg.backoff_rewrite_rate));
    region.OnRewrite();
  }
  for (uint32_t i = 0; i < 10 * cfg.window_hints; ++i) {
    EXPECT_TRUE(region.OnHint(cfg, cfg.backoff_rewrite_rate));
  }
  EXPECT_EQ(region.state(), RegionBackoff::State::kOpen);
  EXPECT_EQ(region.backoffs(), 0u);

  // Sustained misuse: two consecutive hot windows do trip it.
  RegionBackoff storm;
  uint32_t hints = 0;
  while (storm.state() == RegionBackoff::State::kOpen && hints < 1000) {
    if (storm.OnHint(cfg, cfg.backoff_rewrite_rate)) {
      storm.OnRewrite();
    }
    ++hints;
  }
  EXPECT_EQ(storm.state(), RegionBackoff::State::kBackoff);
  // The second evaluation (the confirming window) is what trips it.
  EXPECT_LE(hints, 2 * cfg.window_hints + 2);
}

TEST(RegionBackoffPolicy, UselessRateAloneTriggersBackoff) {
  GovernorConfig cfg = FastConfig();
  RegionBackoff region;
  for (uint32_t i = 0; i < cfg.window_hints; ++i) {
    region.OnHint(cfg, cfg.backoff_rewrite_rate);
    region.OnUseless();
  }
  EXPECT_FALSE(region.OnHint(cfg, cfg.backoff_rewrite_rate));
  EXPECT_EQ(region.state(), RegionBackoff::State::kBackoff);
}

// ---- Governor on the simulated machine ----

// Listing-3 storm: rewrite + clean one line, `iters` times. Returns cycles.
uint64_t RunStorm(Machine& machine, uint32_t iters) {
  const SimAddr line = machine.Alloc(64);
  std::vector<uint8_t> payload(64, 1);
  return RunOnCore(machine, [&](Core& core) {
    for (uint32_t i = 0; i < iters; ++i) {
      core.MemCopyToSim(line, payload.data(), payload.size());
      core.Prestore(line, 64, PrestoreOp::kClean);
    }
  });
}

TEST(PrestoreGovernor, BacksOffListing3Storm) {
  Machine machine(MachineA(1));
  PrestoreGovernor governor(machine, FastConfig());
  governor.Attach();
  RunStorm(machine, 2000);

  const PrestoreGovernor::Snapshot snap = governor.TakeSnapshot();
  EXPECT_EQ(snap.attempts, 2000u);
  EXPECT_GT(snap.suppressed_by_region, snap.attempts / 2);
  EXPECT_EQ(snap.suppressed_by_gate, 0u);  // PMEM has headroom: gate inert
  ASSERT_EQ(snap.regions.size(), 1u);
  EXPECT_EQ(snap.regions[0].state, RegionBackoff::State::kBackoff);
  EXPECT_GE(snap.regions[0].backoffs, 1u);
  EXPECT_EQ(machine.core(0).stats().prestores_suppressed,
            snap.suppressed_by_region);
}

TEST(PrestoreGovernor, GovernedStormOutperformsUngoverned) {
  const uint32_t kIters = 4000;
  Machine plain(MachineA(1));
  const uint64_t ungoverned = RunStorm(plain, kIters);

  Machine governed_machine(MachineA(1));
  PrestoreGovernor governor(governed_machine, FastConfig());
  governor.Attach();
  const uint64_t governed = RunStorm(governed_machine, kIters);

  // Suppressing the misused cleans must recover most of their cost.
  EXPECT_LT(governed, ungoverned);
}

TEST(PrestoreGovernor, RecoversWhenRewritesStop) {
  Machine machine(MachineA(1));
  PrestoreGovernor governor(machine, FastConfig());
  governor.Attach();

  // Region-aligned so both phases land in exactly one governor region.
  constexpr uint64_t kRegionBytes = 1ULL << kRegionShift;
  const SimAddr buf =
      machine.Alloc(kRegionBytes, Region::kTarget, kRegionBytes);
  std::vector<uint8_t> payload(64, 2);
  RunOnCore(machine, [&](Core& core) {
    // Phase 1: Listing-3 storm on one line of the region.
    for (uint32_t i = 0; i < 600; ++i) {
      core.MemCopyToSim(buf, payload.data(), payload.size());
      core.Prestore(buf, 64, PrestoreOp::kClean);
    }
    // Phase 2: well-behaved streaming cleans over the same region — every
    // line written once, cleaned once, never rewritten. (A single pass: the
    // region fits the LLC, so repeated passes would re-dirty resident
    // cleaned lines and correctly read as misuse.)
    for (uint64_t off = 64; off < kRegionBytes; off += 64) {
      core.MemCopyToSim(buf + off, payload.data(), payload.size());
      core.Prestore(buf + off, 64, PrestoreOp::kClean);
    }
  });

  const PrestoreGovernor::Snapshot snap = governor.TakeSnapshot();
  ASSERT_EQ(snap.regions.size(), 1u);
  EXPECT_GE(snap.regions[0].backoffs, 1u);   // the storm tripped it
  EXPECT_GE(snap.regions[0].reopens, 1u);    // probing recovered it
  EXPECT_EQ(snap.regions[0].state, RegionBackoff::State::kOpen);
}

TEST(PrestoreGovernor, GateSuppressesFencelessHintsOnFarMemory) {
  // Machine B: far memory, internal block == cache line, workload without
  // fences — the §7.4.1 regime where hints cannot help.
  Machine machine(MachineBFast(1));
  GovernorConfig cfg = FastConfig();
  PrestoreGovernor governor(machine, cfg);
  governor.Attach();

  const SimAddr buf = machine.Alloc(4096 * 128);
  std::vector<uint8_t> payload(128, 4);
  RunOnCore(machine, [&](Core& core) {
    for (uint32_t i = 0; i < 1000; ++i) {
      const SimAddr e = buf + (i % 4096) * 128;
      core.MemCopyToSim(e, payload.data(), payload.size());
      core.Prestore(e, 128, PrestoreOp::kClean);
    }
  });

  const PrestoreGovernor::Snapshot snap = governor.TakeSnapshot();
  EXPECT_TRUE(snap.gate_closed);
  EXPECT_GT(snap.suppressed_by_gate, snap.attempts / 2);
}

TEST(PrestoreGovernor, GateStaysOpenWhenWorkloadFences) {
  Machine machine(MachineBFast(1));
  GovernorConfig cfg = FastConfig();
  PrestoreGovernor governor(machine, cfg);
  governor.Attach();

  const SimAddr buf = machine.Alloc(4096 * 128);
  std::vector<uint8_t> payload(128, 4);
  RunOnCore(machine, [&](Core& core) {
    for (uint32_t i = 0; i < 1000; ++i) {
      const SimAddr e = buf + (i % 4096) * 128;
      core.MemCopyToSim(e, payload.data(), payload.size());
      core.Prestore(e, 128, PrestoreOp::kClean);
      if (i % 8 == 0) {
        core.Fence();  // message-passing-style publication
      }
    }
  });

  const PrestoreGovernor::Snapshot snap = governor.TakeSnapshot();
  EXPECT_FALSE(snap.gate_closed);
  EXPECT_EQ(snap.suppressed_by_gate, 0u);
}

TEST(PrestoreGovernor, SummaryMentionsActedRegions) {
  Machine machine(MachineA(1));
  PrestoreGovernor governor(machine, FastConfig());
  governor.Attach();
  RunStorm(machine, 1000);
  const std::string summary = governor.Summary();
  EXPECT_NE(summary.find("governor:"), std::string::npos);
  EXPECT_NE(summary.find("backoff"), std::string::npos);
}

// ---- Config validation + the bounded region table ----

TEST(GovernorConfig, ValidateCatchesIncoherentSettings) {
  GovernorConfig cfg;
  EXPECT_EQ(cfg.Validate(), "");

  cfg.backoff_rewrite_rate = 0.2;
  cfg.reopen_rewrite_rate = 0.5;  // reopen must not exceed backoff
  EXPECT_NE(cfg.Validate(), "");
}

TEST(PrestoreGovernor, ConstructorThrowsOnBadConfig) {
  Machine machine(MachineA(1));
  GovernorConfig cfg;
  cfg.probe_period = 0;
  EXPECT_THROW(PrestoreGovernor(machine, cfg), std::invalid_argument);
}

TEST(PrestoreGovernor, RegionTableIsLruBounded) {
  Machine machine(MachineA(1));
  PrestoreGovernor governor(machine, FastConfig());
  governor.Attach();

  constexpr uint64_t kRegionBytes = 1ULL << kRegionShift;
  constexpr uint64_t kCap = PrestoreGovernor::kMaxTrackedRegions;
  // Address space only: clean hints of never-written lines touch no host
  // memory.
  const SimAddr base =
      machine.Alloc((kCap + 65) * kRegionBytes, Region::kTarget, kRegionBytes);
  Core& core = machine.core(0);
  const auto hint = [&](uint64_t region) {
    core.Prestore(base + region * kRegionBytes, 64, PrestoreOp::kClean);
  };
  // One hint into each of kCap + 64 distinct regions: the table must stay
  // at the cap and count the displacements.
  for (uint64_t r = 0; r < kCap + 64; ++r) {
    hint(r);
  }
  const PrestoreGovernor::Snapshot snap = governor.TakeSnapshot();
  EXPECT_EQ(snap.regions.size(), kCap);
  EXPECT_EQ(snap.region_evictions, 64u);

  // LRU, not FIFO: region 64 is now the least recently touched entry.
  // Touching it again must save it from the next displacement, which then
  // takes region 65 instead.
  hint(64);
  hint(kCap + 64);
  bool has_64 = false;
  bool has_65 = false;
  for (const PrestoreGovernor::RegionSnapshot& r :
       governor.TakeSnapshot().regions) {
    has_64 = has_64 || r.region_base == base + 64 * kRegionBytes;
    has_65 = has_65 || r.region_base == base + 65 * kRegionBytes;
  }
  EXPECT_TRUE(has_64);
  EXPECT_FALSE(has_65);
}

}  // namespace
}  // namespace prestore
