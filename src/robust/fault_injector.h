// Deterministic, seeded fault injector for the simulator.
//
// As a DeviceFaultHook it adds latency spikes to the device timing paths;
// the cluster (DESIGN.md §11) asks it whether a node is killed, draining or
// degraded at a run-relative time.
//
// Everything is a pure function of the FaultPlan: the window schedule is
// expanded up front with a seeded generator, so the same plan yields a
// byte-identical injected-event log (EventLog()).
#ifndef SRC_ROBUST_FAULT_INJECTOR_H_
#define SRC_ROBUST_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/robust/fault_plan.h"
#include "src/sim/config.h"
#include "src/sim/hooks.h"

namespace prestore {

class Machine;

class FaultInjector : public DeviceFaultHook {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  // Installs this injector as `machine`'s device fault hook. The injector
  // must outlive the machine's measured runs.
  void Attach(Machine& machine);

  // The expanded schedule, sorted by start cycle.
  const std::vector<FaultWindow>& schedule() const { return schedule_; }

  // Serialized injected-event log: the expanded window schedule followed by
  // every router-side rejection, in per-lane order. Byte-identical across
  // runs with the same plan and the same workload.
  std::string EventLog() const;

  // ---- DeviceFaultHook ----
  uint64_t ExtraLatency(bool is_write, uint64_t now) override;

  // ---- Node-level fault queries (cluster serving, DESIGN.md §11) ----
  // `at` is run-relative: the cluster anchors its serving window at cycle 0
  // of the schedule, so decisions keyed on scheduled submit times replay
  // identically regardless of how long construction/preload took.
  //
  // A kill is permanent: active from its window's start_cycle onward.
  bool NodeKilled(uint32_t node, uint64_t at) const;
  // A drain refuses NEW work for [start, end); queued work still completes.
  bool NodeDraining(uint32_t node, uint64_t at) const;
  // End of the drain window active at `at` (the rejoin time), 0 if none.
  uint64_t DrainEndAfter(uint32_t node, uint64_t at) const;
  // Extra service cycles per request while a degrade window is active.
  uint64_t NodeDegradeCycles(uint32_t node, uint64_t at) const;

  // Router-side rejection log: one lane per driver, serialized into
  // EventLog(). `at` is the request's run-relative decision time — a pure
  // function of the client's schedule, so the log replays byte-identically.
  void RecordNodeRejection(uint32_t lane, FaultKind kind, uint32_t node,
                           uint64_t at);

 private:
  struct RejectLogEntry {
    uint64_t ordinal;  // per-lane rejection counter value
    FaultKind kind;
    uint32_t node;
    uint64_t at;  // run-relative decision time
  };

  // Max of active-window magnitudes of `kind` at `now`.
  double ActiveMagnitude(FaultKind kind, uint64_t now) const;

  uint64_t seed_;
  std::vector<FaultWindow> schedule_;
  // Per-kind views into the schedule, sorted by start, for fast queries.
  std::array<std::vector<FaultWindow>, kNumFaultKinds> by_kind_;
  // Per-lane rejection logs (one lane per driver).
  std::array<std::vector<RejectLogEntry>, kMaxCores> reject_log_;
};

}  // namespace prestore

#endif  // SRC_ROBUST_FAULT_INJECTOR_H_
