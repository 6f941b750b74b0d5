// RunParallel robustness: body exceptions propagate to the caller (instead
// of std::terminate), and a run in which no core can make progress aborts
// with per-core diagnostics instead of hanging.
#include <gtest/gtest.h>

#include <stdexcept>

#include "src/sim/harness.h"
#include "src/sim/machine.h"

namespace prestore {
namespace {

TEST(RunParallelExceptions, WorkerExceptionPropagates) {
  Machine machine(MachineA(2));
  EXPECT_THROW(
      RunParallel(machine, 2,
                  [](Core& core, uint32_t tid) {
                    core.Execute(10);
                    if (tid == 1) {
                      throw std::runtime_error("worker failed");
                    }
                  }),
      std::runtime_error);
}

TEST(RunParallelExceptions, FirstExceptionWinsAndAllWorkersJoin) {
  Machine machine(MachineA(4));
  int completed = 0;
  try {
    RunParallel(machine, 4, [&](Core& core, uint32_t tid) {
      core.Execute(10);
      if (tid == 0) {
        throw std::logic_error("first");
      }
      // The other bodies keep running to completion, across several
      // scheduler rounds.
      core.Execute(20000);
      ++completed;
    });
    FAIL() << "expected an exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(completed, 3);
}

TEST(RunParallelExceptions, SingleThreadInlinePathPropagates) {
  Machine machine(MachineA(1));
  EXPECT_THROW(RunParallel(machine, 1,
                           [](Core&, uint32_t) {
                             throw std::runtime_error("inline");
                           }),
               std::runtime_error);
}

TEST(RunParallelChecks, RejectsMoreBodiesThanCores) {
  Machine machine(MachineA(2));
  EXPECT_THROW(RunParallel(machine, 3, [](Core&, uint32_t) {}),
               std::invalid_argument);
}

// Each body waits host-side for a flag only the other one would set after
// its own wait: once both have run, no clock can ever move again.
void RunMutualWait(Machine& machine) {
  bool ready[2] = {false, false};
  RunParallel(machine, 2, [&](Core& core, uint32_t tid) {
    core.Execute(100);
    while (!ready[1 - tid]) {
      core.EndSlice();
    }
    ready[tid] = true;
  });
}

TEST(RunParallelDeathTest, AbortsDeadlockWithCoreClocks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Machine machine(MachineA(2));
  EXPECT_DEATH(RunMutualWait(machine),
               "deadlock.*core 0: now=100.*core 1: now=100");
}

}  // namespace
}  // namespace prestore
