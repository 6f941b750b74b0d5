// Deterministic, seeded fault injector for the simulator.
//
// Hooks both sides of the machine:
//  - as a DeviceFaultHook it injects latency spikes, bandwidth-throttle
//    windows, XPBuffer pressure, and far-memory directory timeouts into the
//    device timing paths;
//  - as a PrestoreHook it drops or delays pre-store hints on the core's
//    issue path.
//
// Everything is a pure function of the FaultPlan: the window schedule is
// expanded up front with a seeded generator, and per-hint drop decisions
// hash (seed, core, per-core hint ordinal), so a single-core run replayed
// with the same seed produces a byte-identical injected-event log
// (EventLog()). Multi-core runs keep per-core logs individually
// deterministic.
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

class FaultInjector : public DeviceFaultHook, public PrestoreHook {
 public:
  explicit FaultInjector(const FaultPlan& plan);

  // Installs this injector on `machine` (device hook + pre-store hook).
  // The injector must outlive the machine's measured runs.
  void Attach(Machine& machine);

  // The expanded schedule, sorted by start cycle.
  const std::vector<FaultWindow>& schedule() const { return schedule_; }

  // Serialized injected-event log: the expanded window schedule followed by
  // every per-core hint intervention, in per-core order. Byte-identical
  // across runs with the same plan and (per core) the same workload.
  std::string EventLog() const;

  // ---- DeviceFaultHook ----
  uint64_t ExtraLatency(bool is_write, uint64_t now) override;
  double BandwidthCostMultiplier(uint64_t now) override;
  uint32_t StolenBufferBlocks(uint64_t now) override;
  uint64_t ExtraDirectoryLatency(uint64_t now) override;

  // ---- PrestoreHook ----
  HintFate OnPrestoreHint(uint8_t core, uint64_t line_addr, PrestoreOp op,
                          uint64_t now, uint64_t* delay_cycles) override;

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

  // Router-side rejection log: one lane per driver (like the per-core hint
  // logs), serialized into EventLog(). `at` is the
  // request's run-relative decision time — a pure function of the client's
  // schedule, so the log replays byte-identically.
  void RecordNodeRejection(uint32_t lane, FaultKind kind, uint32_t node,
                           uint64_t at);

 private:
  struct HintLogEntry {
    uint64_t ordinal;  // per-core hint counter value
    uint64_t line_addr;
    bool dropped;      // false = delayed
    uint64_t delay_cycles;
  };

  struct RejectLogEntry {
    uint64_t ordinal;  // per-lane rejection counter value
    FaultKind kind;
    uint32_t node;
    uint64_t at;  // run-relative decision time
  };

  // Sum / max of active-window magnitudes of `kind` at `now`.
  double ActiveMagnitude(FaultKind kind, uint64_t now) const;

  uint64_t seed_;
  std::vector<FaultWindow> schedule_;
  // Per-kind views into the schedule, sorted by start, for fast queries.
  std::array<std::vector<FaultWindow>, kNumFaultKinds> by_kind_;
  // Per-core hint ordinals and intervention logs (one slot per core id).
  std::array<uint64_t, kMaxCores> hint_ordinal_{};
  std::array<std::vector<HintLogEntry>, kMaxCores> hint_log_;
  // Per-lane rejection logs (one lane per driver).
  std::array<std::vector<RejectLogEntry>, kMaxCores> reject_log_;
};

}  // namespace prestore

#endif  // SRC_ROBUST_FAULT_INJECTOR_H_
