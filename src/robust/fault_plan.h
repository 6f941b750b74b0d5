// Declarative fault plans for the simulator.
//
// A FaultPlan is a seed plus a set of FaultSpecs; FaultInjector::Expand
// turns it into a concrete, fully deterministic schedule of fault windows
// (same plan ⇒ byte-identical schedule and event log), so any failure found
// under injection reproduces from the seed alone.
#ifndef SRC_ROBUST_FAULT_PLAN_H_
#define SRC_ROBUST_FAULT_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace prestore {

enum class FaultKind : uint8_t {
  kLatencySpike,  // magnitude = extra cycles per device access
  // ---- Node-level faults (cluster serving, DESIGN.md §11). `node` selects
  // the victim; times are run-relative cycles (the cluster run anchors them
  // at its measured serving window, not at machine construction).
  kNodeKill,     // node dead from start_cycle on (duration ignored)
  kNodeDegrade,  // magnitude = extra cycles charged per request served
  kNodeDrain,    // node refuses new work for [start, end), then rejoins
};

constexpr size_t kNumFaultKinds = 4;

constexpr std::string_view ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLatencySpike:
      return "latency_spike";
    case FaultKind::kNodeKill:
      return "node_kill";
    case FaultKind::kNodeDegrade:
      return "node_degrade";
    case FaultKind::kNodeDrain:
      return "node_drain";
  }
  return "?";
}

// One recurring fault: `count` windows of `duration_cycles`, spaced on
// average `mean_period_cycles` apart (uniform jitter of ±50% of the period,
// drawn from the plan's seed).
struct FaultSpec {
  FaultKind kind = FaultKind::kLatencySpike;
  uint64_t mean_period_cycles = 100000;
  uint64_t duration_cycles = 10000;
  double magnitude = 1.0;
  uint32_t count = 1;
  uint32_t node = 0;  // victim node, node-level kinds only
};

struct FaultPlan {
  uint64_t seed = 1;
  std::vector<FaultSpec> specs;
};

// A concrete scheduled window: the fault is active for now in
// [start_cycle, end_cycle).
struct FaultWindow {
  FaultKind kind;
  uint64_t start_cycle;
  uint64_t end_cycle;
  double magnitude;
  uint32_t node = 0;  // victim node, node-level kinds only
};

}  // namespace prestore

#endif  // SRC_ROBUST_FAULT_PLAN_H_
