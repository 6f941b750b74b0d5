// Determinism guard for the simulation engine (ISSUE 5 / DESIGN.md §10).
//
// A sequential replay of a fixed trace must leave the machine in a
// bit-identical state for a fixed seed: same cycle totals, same media-byte
// counters, same LLC content (which encodes every eviction decision). The
// digests below were recorded from the engine BEFORE the fast-path rework
// (global atomic MachineStats, monolithic LLC behind sharded mutexes);
// the reworked engine — striped stats, truly sharded LLC, way-hint probes —
// must reproduce them exactly, proving the optimizations changed no
// simulated result.
//
// The traces use the integer-only uniform key stream (zipf_theta = 0):
// zipfian generation rounds through std::pow, whose last-bit behaviour is
// libm-specific, and a recorded digest must not depend on the host's libm.
#include <gtest/gtest.h>

#include "src/sim/config.h"
#include "src/sim/machine.h"
#include "src/sim/replay.h"
#include "src/sim/scheduler.h"

namespace prestore {
namespace {

ReplayTraceConfig DigestTrace(uint32_t workers) {
  ReplayTraceConfig cfg;
  cfg.workers = workers;
  cfg.ops_per_worker = 20000;
  cfg.keys_per_worker = 2048;
  cfg.shared_keys = 512;
  cfg.shared_fraction = 0.25;  // exercise the cross-core coherence paths
  cfg.value_size = 256;
  cfg.read_ratio = 0.5;
  cfg.zipf_theta = 0.0;  // integer-only key stream (portable digest)
  cfg.clean_period = 8;
  cfg.seed = 42;
  return cfg;
}

uint64_t RunDigest(const MachineConfig& mc, uint32_t workers) {
  Machine machine(mc);
  const ReplayTrace trace =
      GenerateReplayTrace(machine, DigestTrace(workers));
  ReplaySequential(machine, trace);
  return DigestMachine(machine, workers);
}

// Machine A: TSO drain, QuadAge LLC (per-set RNG victim choice), PMEM
// target with internal write-combining blocks.
TEST(SimDeterminism, MachineADigestMatchesPreReworkEngine) {
  constexpr uint64_t kRecorded = 14557681877422147460ULL;
  EXPECT_EQ(RunDigest(MachineA(4), 4), kRecorded);
}

// Machine B: weak drain (store buffer + fence publication), random-policy
// LLC, far-memory target with on-device directory.
TEST(SimDeterminism, MachineBDigestMatchesPreReworkEngine) {
  constexpr uint64_t kRecorded = 2163896687524659229ULL;
  EXPECT_EQ(RunDigest(MachineBFast(3), 3), kRecorded);
}

// Miss-heavy, store-heavy trace on Machine A (the tier-1 and CI miss-leg
// smoke, `sim_throughput_cli --workers=2 --sequential --ops=20000
// --keys=16384 --shared-keys=256 --shared-fraction=0.1 --read-ratio=0.4
// --theta=0 --miss-mix=0.8 --seed=42 --digest`): most ops end in device
// work, so this pins the PMEM XPBuffer and media accounting end to end.
TEST(SimDeterminism, MissLegDigestMatchesRecorded) {
  ReplayTraceConfig cfg;
  cfg.workers = 2;
  cfg.ops_per_worker = 20000;
  cfg.keys_per_worker = 16384;
  cfg.shared_keys = 256;
  cfg.shared_fraction = 0.1;
  cfg.read_ratio = 0.4;
  cfg.zipf_theta = 0.0;
  cfg.miss_mix = 0.8;
  cfg.seed = 42;
  Machine machine(MachineA(2));
  const ReplayTrace trace = GenerateReplayTrace(machine, cfg);
  ReplaySequential(machine, trace);
  EXPECT_EQ(DigestMachine(machine, 2), 0xdf3675ef331ab243ULL);
}

// Same-process repeatability, independent of any recorded constant (and of
// libm: this variant runs the zipfian trace too).
TEST(SimDeterminism, RepeatedReplaysAreBitIdentical) {
  ReplayTraceConfig cfg = DigestTrace(4);
  cfg.zipf_theta = 0.99;
  uint64_t digests[2];
  for (int i = 0; i < 2; ++i) {
    Machine machine(MachineA(4));
    const ReplayTrace trace = GenerateReplayTrace(machine, cfg);
    ReplaySequential(machine, trace);
    digests[i] = DigestMachine(machine, 4);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

uint64_t RunSlicedDigest(uint32_t workers, uint64_t quantum) {
  Machine machine(MachineA(workers));
  const ReplayTrace trace =
      GenerateReplayTrace(machine, DigestTrace(workers));
  ReplaySlicedOptions options;
  options.quantum = quantum;
  ReplaySliced(machine, trace, options);
  return DigestMachine(machine, workers);
}

// The fiber scheduler's contract (DESIGN.md §12): cores run in fixed
// (round, core) order, an op starts only before the round deadline, so a
// sliced run's end state is a pure function of trace and quantum. This
// 8-core digest was recorded from the slice-loop scheduler the fibers
// replaced; the fiber driver must reproduce it bit for bit.
TEST(SimDeterminism, SlicedDigestMatchesRecordedScheduler) {
  constexpr uint64_t kRecorded = 0x7377a872a3f90b85ULL;
  EXPECT_EQ(RunSlicedDigest(8, 20000), kRecorded);
}

// A quantum larger than the whole run degenerates round 0 into "run each
// core to completion, in core order" — which is the definition of
// ReplaySequential. The digests must agree exactly.
TEST(SimDeterminism, SlicedWithHugeQuantumMatchesSequential) {
  Machine sequential(MachineA(4));
  const ReplayTrace trace =
      GenerateReplayTrace(sequential, DigestTrace(4));
  ReplaySequential(sequential, trace);
  const uint64_t want = DigestMachine(sequential, 4);
  EXPECT_EQ(RunSlicedDigest(4, uint64_t{1} << 40), want);
}

// The quantum changes WHERE core switches land, so different quanta may
// legitimately produce different schedules; each must be reproducible.
TEST(SimDeterminism, SlicedRunsAreBitIdentical) {
  EXPECT_EQ(RunSlicedDigest(4, 500), RunSlicedDigest(4, 500));
  EXPECT_EQ(RunSlicedDigest(4, BandwidthMeter::kWindow),
            RunSlicedDigest(4, BandwidthMeter::kWindow));
}

TEST(SimDeterminism, SchedulerConfigRejectsZeroQuantum) {
  SchedulerConfig cfg;
  cfg.quantum = 0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
}

}  // namespace
}  // namespace prestore
