// The simulator's one execution model (DESIGN.md §12): every simulated
// core's work runs as a stackful fiber on the calling host thread, and the
// fibers are resumed in a fixed (round, fiber) order.
//
// Round r has the deadline `start + (r + 1) * quantum`. A fiber homed on a
// core is resumed only while that core's clock is below the deadline (an
// op starts only before the deadline); a fiber with no home core (a cluster
// load driver) is resumed every round. A resumed fiber runs until it
// yields, which it does in three places:
//  - at the end of a Core op that leaves the core's clock at or past the
//    deadline (Core::MaybeEndSlice);
//  - in SpinPause when the core is already at the fastest published clock;
//  - at a host-side wait for another core's progress (Core::EndSlice).
// One host thread executes everything, so the engine holds no locks, and
// the end state of a run is a pure function of the workload and the
// quantum: every run of every workload is bit-reproducible.
//
// Deadlock check: a round in which every live fiber was resumed, no core
// clock (current or published) moved and no fiber finished would repeat
// forever, so the run aborts with each core's clock.
#ifndef SRC_SIM_SCHEDULER_H_
#define SRC_SIM_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/sim/machine.h"

namespace prestore {

struct SchedulerConfig {
  // Simulated cycles per round. The default is the device meters'
  // skew-tolerance window (BandwidthMeter::kWindow): no slice lets two
  // cores drift further apart than the meters are built to absorb.
  uint64_t quantum = BandwidthMeter::kWindow;

  // Throws std::invalid_argument on quantum == 0 (no round could end).
  void Validate() const;
};

class SimScheduler {
 public:
  explicit SimScheduler(const SchedulerConfig& config = {});
  ~SimScheduler();

  SimScheduler(const SimScheduler&) = delete;
  SimScheduler& operator=(const SimScheduler&) = delete;

  // Registers every core of `machine`: their clocks carry the round
  // deadline and are reported by the deadlock check. Register each machine
  // a fiber touches before Run().
  void AddMachine(Machine& machine);

  // Adds a fiber running `body`. `home` is the core whose clock gates the
  // fiber's resumption; nullptr resumes it every round.
  void Spawn(Core* home, std::function<void()> body);

  // Runs every fiber to completion in rounds anchored at `start`. An
  // exception thrown by a body ends that fiber only; once the others have
  // finished, the first one (in resume order) is rethrown here.
  void Run(uint64_t start);

  // Ends the calling fiber's slice. A no-op outside a running fiber.
  static void YieldCurrent();

 private:
  struct Fiber;

  void Resume(Fiber& fiber);
  void Yield();
  static void FiberEntry();
  uint64_t ClockSum() const;
  [[noreturn]] void AbortDeadlock(uint64_t round) const;

  SchedulerConfig config_;
  std::vector<Machine*> machines_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  Fiber* current_ = nullptr;
  struct MainContext;
  std::unique_ptr<MainContext> main_;
};

}  // namespace prestore

#endif  // SRC_SIM_SCHEDULER_H_
