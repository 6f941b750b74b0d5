// Parallel-execution harness: runs a workload body on N simulated cores
// (fibers on the deterministic scheduler, scheduler.h) and reports
// simulated elapsed cycles.
#ifndef SRC_SIM_HARNESS_H_
#define SRC_SIM_HARNESS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "src/sim/machine.h"
#include "src/sim/scheduler.h"

namespace prestore {

// Aligns all core clocks, runs fn(core, thread_index) on cores [0, nthreads)
// as fibers on SimScheduler rounds of `config.quantum` cycles, and returns
// the simulated cycle count of the slowest core (the paper's notion of
// parallel runtime). Throws std::invalid_argument when the machine has
// fewer than `nthreads` cores.
//
// An exception thrown by `fn` ends that body only; the other bodies run to
// completion and the first exception is then rethrown on the caller.
inline uint64_t RunParallel(Machine& machine, uint32_t nthreads,
                            const std::function<void(Core&, uint32_t)>& fn,
                            const SchedulerConfig& config = {}) {
  if (nthreads > machine.num_cores()) {
    throw std::invalid_argument(
        "RunParallel: " + std::to_string(nthreads) + " bodies on a " +
        std::to_string(machine.num_cores()) + "-core machine");
  }
  const uint64_t start = machine.AlignCores();
  SimScheduler scheduler(config);
  scheduler.AddMachine(machine);
  for (uint32_t i = 0; i < nthreads; ++i) {
    Core& core = machine.core(i);
    scheduler.Spawn(&core, [&fn, &core, i] { fn(core, i); });
  }
  scheduler.Run(start);
  uint64_t end = start;
  for (uint32_t i = 0; i < nthreads; ++i) {
    end = std::max(end, machine.core(i).now());
  }
  return end - start;
}

// Single-core convenience: returns simulated cycles of fn on core 0.
inline uint64_t RunOnCore(Machine& machine, const std::function<void(Core&)>& fn) {
  Core& core = machine.core(0);
  const uint64_t start = core.now();
  fn(core);
  return core.now() - start;
}

}  // namespace prestore

#endif  // SRC_SIM_HARNESS_H_
