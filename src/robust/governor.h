// Adaptive pre-store governor for the simulator.
//
// Sits on the Machine's pre-store issue path (a PrestoreHook) and decides,
// per hint, whether issuing it can plausibly pay for itself. Three online
// signals drive the decision:
//
//  1. Per-region rewrite-after-clean rate — the Listing-3 misuse pattern
//     (§7.4.2): cleaning a line that is about to be rewritten turns one
//     coalesced writeback into several, multiplying media traffic. Regions
//     whose cleans keep getting re-dirtied are backed off with hysteresis
//     and probed for recovery (see governor_policy.h).
//  2. A global useless-overhead gate (§7.4.1): on a device with no
//     write-amplification headroom (internal block == cache line), hints
//     only help by overlapping publication with ordering fences; when the
//     workload (almost) never fences, every hint is pure issue overhead and
//     the gate suppresses them all (still with probing via the hysteresis
//     fence-rate band).
//  3. Device pressure — the target device's internal backlog and measured
//     write amplification are sampled periodically; under pressure the
//     rewrite backoff threshold tightens, since wasted writebacks are
//     costlier when the media is already behind.
//
// Suppressed hints cost no simulated cycles (a real governor would be a
// predicted branch around the hint instruction) and are counted in
// CoreStats::prestores_suppressed and in the governor's own snapshot.
#ifndef SRC_ROBUST_GOVERNOR_H_
#define SRC_ROBUST_GOVERNOR_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/robust/governor_policy.h"
#include "src/sim/hooks.h"

namespace prestore {

class Machine;

// Per-region verdict source that replaces the fixed-shift RegionBackoff
// table when installed (the adaptive region monitor,
// src/monitor/region_monitor.h). Called once per line-granular hint that
// survived the global gate; must not call back into the governor.
class RegionAdvisor {
 public:
  virtual ~RegionAdvisor() = default;
  virtual HintFate AdviseHint(uint8_t core, uint64_t line_addr, PrestoreOp op,
                              uint64_t now) = 0;
};

class PrestoreGovernor : public PrestoreHook {
 public:
  // Throws std::invalid_argument when config.Validate() rejects the
  // configuration.
  explicit PrestoreGovernor(Machine& machine, GovernorConfig config = {});

  // Installs the per-region advisor: with one installed the governor asks
  // it instead of running its own region table (nullptr restores the
  // table). Set before Attach(); the advisor must outlive the governed
  // runs.
  void SetRegionAdvisor(RegionAdvisor* advisor) { advisor_ = advisor; }

  // Registers this governor on the machine's pre-store issue path. The
  // governor must outlive the machine's measured runs.
  void Attach();

  // ---- PrestoreHook ----
  HintFate OnPrestoreHint(uint8_t core, uint64_t line_addr, PrestoreOp op,
                          uint64_t now) override;
  void OnUselessHint(uint8_t core, uint64_t line_addr, PrestoreOp op) override;
  void OnRewriteAfterClean(uint8_t core, uint64_t line_addr,
                           uint64_t now) override;
  void OnFence(uint8_t core, uint64_t now) override;

  // ---- Exported decisions / counters ----

  struct RegionSnapshot {
    uint64_t region_base = 0;  // first byte of the region
    RegionBackoff::State state = RegionBackoff::State::kOpen;
    uint64_t admitted = 0;
    uint64_t suppressed = 0;
    uint64_t rewrites = 0;
    uint64_t useless = 0;
    uint32_t backoffs = 0;
    uint32_t reopens = 0;
  };

  struct Snapshot {
    uint64_t attempts = 0;
    uint64_t admitted = 0;
    uint64_t suppressed = 0;
    uint64_t suppressed_by_gate = 0;    // global useless-overhead gate
    uint64_t suppressed_by_region = 0;  // per-region rewrite/useless backoff
    uint64_t suppressed_by_monitor = 0; // region advisor verdicts
    uint64_t region_evictions = 0;      // LRU cap displacements
    uint64_t fences = 0;
    bool gate_closed = false;      // global gate currently suppressing
    bool under_pressure = false;   // last device sample exceeded thresholds
    uint64_t last_backlog = 0;     // last sampled internal backlog (cycles)
    double last_write_amp = 1.0;   // last sampled write amplification
    std::vector<RegionSnapshot> regions;  // sorted by region_base
  };

  Snapshot TakeSnapshot() const;

  // One-line-per-counter human-readable summary (for benches).
  std::string Summary() const;

  const GovernorConfig& config() const { return config_; }

  // Most-recently-touched regions kept in the region table; a sparse
  // address walk (one hint per region over a huge span) evicts the least
  // recently touched entry instead of growing without limit. An evicted
  // region that is touched again restarts from a fresh kOpen state; the
  // governor counts evictions so benches can see when the cap binds.
  static constexpr uint32_t kMaxTrackedRegions = 4096;

 private:
  // Target-device amplification headroom: internal block bytes per cache
  // line. > 1 means cleans can reduce media traffic; == 1 means they cannot.
  double HeadroomFor(uint64_t line_addr) const;

  void SampleDevicePressure(uint64_t now);
  void EvaluateGate();

  // The bounded region table: an LRU list of (region key, backoff state)
  // with an index by key. Touching a region splices it to the front;
  // exceeding kMaxTrackedRegions evicts the back (least recently touched)
  // and counts it. Replaces the former unbounded std::map.
  struct TrackedRegion {
    uint64_t key;
    RegionBackoff backoff;
  };
  RegionBackoff& TouchRegion(uint64_t key);

  Machine& machine_;
  const GovernorConfig config_;
  double dram_headroom_ = 1.0;
  double target_headroom_ = 1.0;
  RegionAdvisor* advisor_ = nullptr;

  std::list<TrackedRegion> region_lru_;  // front = most recently touched
  std::unordered_map<uint64_t, std::list<TrackedRegion>::iterator>
      region_index_;  // key: addr >> kRegionShift

  // Global counters.
  uint64_t attempts_ = 0;
  uint64_t admitted_ = 0;
  uint64_t suppressed_by_gate_ = 0;
  uint64_t suppressed_by_region_ = 0;
  uint64_t suppressed_by_monitor_ = 0;
  uint64_t region_evictions_ = 0;
  uint64_t fences_ = 0;

  // Useless-overhead gate state (hysteresis over the fence rate).
  bool gate_closed_ = false;
  uint64_t gate_last_attempts_ = 0;
  uint64_t gate_last_fences_ = 0;

  // Device-pressure sampling.
  bool under_pressure_ = false;
  uint64_t last_backlog_ = 0;
  double last_write_amp_ = 1.0;
};

}  // namespace prestore

#endif  // SRC_ROBUST_GOVERNOR_H_
