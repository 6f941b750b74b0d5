// Deterministic fault injection: same plan ⇒ identical schedule and event
// log; latency spikes slow the device path (the node-level kinds are
// covered by serve_fault_test); accounting invariants survive injection.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/robust/fault_injector.h"
#include "src/robust/invariants.h"
#include "src/sim/harness.h"
#include "src/sim/machine.h"

namespace prestore {
namespace {

FaultPlan MixedPlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.specs.push_back(
      FaultSpec{FaultKind::kLatencySpike, 50000, 20000, 300.0, 4});
  plan.specs.push_back(
      FaultSpec{FaultKind::kNodeDegrade, 80000, 30000, 2000.0, 3, 0});
  plan.specs.push_back(
      FaultSpec{FaultKind::kNodeDrain, 60000, 25000, 1.0, 3, 1});
  plan.specs.push_back(
      FaultSpec{FaultKind::kLatencySpike, 40000, 40000, 150.0, 4});
  plan.specs.push_back(
      FaultSpec{FaultKind::kNodeDegrade, 70000, 30000, 500.0, 3, 1});
  return plan;
}

// A single-core Listing-1-ish workload: write an element, clean it, read it.
void RunWorkload(Machine& machine, uint32_t iters) {
  const SimAddr buf = machine.Alloc(256 * 64);
  std::vector<uint8_t> payload(64, 0x5a);
  RunOnCore(machine, [&](Core& core) {
    for (uint32_t i = 0; i < iters; ++i) {
      const SimAddr e = buf + (i % 256) * 64;
      core.MemCopyToSim(e, payload.data(), payload.size());
      core.Prestore(e, 64, PrestoreOp::kClean);
      core.LoadU64(e);
    }
  });
  machine.FlushAll();
}

TEST(FaultSchedule, SameSeedSameSchedule) {
  const FaultInjector a(MixedPlan(1234));
  const FaultInjector b(MixedPlan(1234));
  ASSERT_EQ(a.schedule().size(), b.schedule().size());
  for (size_t i = 0; i < a.schedule().size(); ++i) {
    EXPECT_EQ(a.schedule()[i].kind, b.schedule()[i].kind);
    EXPECT_EQ(a.schedule()[i].start_cycle, b.schedule()[i].start_cycle);
    EXPECT_EQ(a.schedule()[i].end_cycle, b.schedule()[i].end_cycle);
    EXPECT_EQ(a.schedule()[i].magnitude, b.schedule()[i].magnitude);
  }
  EXPECT_EQ(a.EventLog(), b.EventLog());
}

TEST(FaultSchedule, DifferentSeedDifferentSchedule) {
  const FaultInjector a(MixedPlan(1));
  const FaultInjector b(MixedPlan(2));
  EXPECT_NE(a.EventLog(), b.EventLog());
}

TEST(FaultSchedule, WindowsAreSortedAndSized) {
  const FaultInjector inj(MixedPlan(99));
  ASSERT_EQ(inj.schedule().size(), 17u);  // 4 + 3 + 3 + 4 + 3
  uint64_t prev = 0;
  for (const FaultWindow& w : inj.schedule()) {
    EXPECT_GE(w.start_cycle, prev);
    EXPECT_GT(w.end_cycle, w.start_cycle);
    prev = w.start_cycle;
  }
}

TEST(FaultInjection, EventLogByteIdenticalAcrossRuns) {
  // Two fresh machines, two fresh injectors, same plan, same single-core
  // workload: the injected-event logs must match byte for byte, and so
  // must the runs the injected latency spikes slowed.
  std::string logs[2];
  uint64_t cycles[2];
  for (int run = 0; run < 2; ++run) {
    Machine machine(MachineA(1));
    FaultInjector injector(MixedPlan(777));
    injector.Attach(machine);
    RunWorkload(machine, 4000);
    logs[run] = injector.EventLog();
    cycles[run] = machine.GlobalTime();
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_EQ(cycles[0], cycles[1]);
  EXPECT_NE(logs[0].find("window kind=latency_spike"), std::string::npos);
}

TEST(FaultInjection, LatencySpikeSlowsTheRun) {
  const uint32_t iters = 3000;
  uint64_t cycles[2];
  for (int faulty = 0; faulty < 2; ++faulty) {
    Machine machine(MachineA(1));
    FaultPlan plan;
    plan.seed = 5;
    if (faulty != 0) {
      // One giant spike covering essentially the whole run.
      plan.specs.push_back(
          FaultSpec{FaultKind::kLatencySpike, 2, 1ULL << 40, 500.0, 1});
    }
    FaultInjector injector(plan);
    injector.Attach(machine);
    const SimAddr buf = machine.Alloc(1024 * 64);
    std::vector<uint8_t> payload(64, 1);
    cycles[faulty] = RunOnCore(machine, [&](Core& core) {
      for (uint32_t i = 0; i < iters; ++i) {
        // Load misses go straight to the device, so the spike is visible.
        core.LoadU64(buf + (i % 1024) * 64);
        core.MemCopyToSim(buf + (i % 1024) * 64, payload.data(), 64);
      }
    });
  }
  EXPECT_GT(cycles[1], cycles[0]);
}

TEST(FaultInjection, InvariantsHoldUnderInjection) {
  Machine machine(MachineA(1));
  FaultInjector injector(MixedPlan(2026));
  injector.Attach(machine);
  RunWorkload(machine, 6000);
  const std::vector<std::string> violations =
      CheckMachineInvariants(machine, /*drained=*/true);
  for (const std::string& v : violations) {
    ADD_FAILURE() << v;
  }
}

TEST(Invariants, CleanRunPassesChecks) {
  Machine machine(MachineA(1));
  RunWorkload(machine, 2000);
  EXPECT_TRUE(CheckMachineInvariants(machine, /*drained=*/true).empty());
}

}  // namespace
}  // namespace prestore
