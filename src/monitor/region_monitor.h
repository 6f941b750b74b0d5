// Online adaptive region monitor in the style of Linux DAMON (DESIGN.md
// §13): bounded adaptive address regions sampled through the simulator's
// observation path, split/merged each aggregation interval by access-pattern
// homogeneity, with four fixed rules (scheme.h) turning each region's
// observed pattern into a pre-store verdict.
//
// The monitor is three interfaces in one object:
//
//   AccessSampleHook — every SamplePeriod()-th line access per core updates
//     the covering region's sampled read/write/sequentiality counters; the
//     aggregation interval closes after `aggregation_samples` samples.
//     Never on the unobserved fast path: an unmonitored run pays one
//     predicted branch per line access (core.h).
//   PrestoreHook — full-rate pre-store telemetry (hint attempts, useless
//     hints, rewrites-after-clean, fences) attributed to regions. Always
//     returns kIssue: the monitor observes, the governor enforces.
//   RegionAdvisor — the per-region verdict source of a governor it is
//     installed on: suppressed regions drop hints except every
//     kProbePeriod-th (recovery probing), admitted/default regions let
//     them through.
//
// Determinism: the sample stream, the aggregation schedule, the seeded
// split offsets, and hence the region tree and verdict action log are
// byte-identical across runs of the same workload (monitor_test pins this
// via DigestState()).
#ifndef SRC_MONITOR_REGION_MONITOR_H_
#define SRC_MONITOR_REGION_MONITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/monitor/scheme.h"
#include "src/robust/governor.h"
#include "src/sim/config.h"
#include "src/sim/hooks.h"
#include "src/util/rng.h"

namespace prestore {

class Machine;

struct MonitorConfig {
  // Line accesses per sampled check, per core. The overhead dial: one
  // virtual call per `sample_period` line accesses on monitored runs.
  uint32_t sample_period = 32;
  // Sampled accesses per aggregation interval (split/merge + rule
  // evaluation cadence).
  uint64_t aggregation_samples = 512;
  // Upper bound on the adaptive region count (the DAMON contract: work per
  // interval is O(max_regions) regardless of address-space size).
  uint32_t max_regions = 100;  // in [kMinRegions, 1000], see Validate()

  // "" when coherent, else the first problem (ServeConfig::Validate idiom).
  std::string Validate() const;
};

// One adaptive region: [start, end) within one monitored range, line
// aligned. Interval counters reset at each aggregation; verdict, age and
// the noread streak persist across intervals (and splits).
struct MonitorRegion {
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t range_id = 0;

  // Sampled-access interval counters.
  uint32_t reads = 0;
  uint32_t writes = 0;
  uint32_t seq_writes = 0;
  uint64_t last_write_line = 0;  // previous sampled write (seq detection)

  // Full-rate pre-store interval counters.
  uint32_t attempts = 0;    // hint attempts (all PrestoreHook consults)
  uint32_t suppressed = 0;  // dropped by this monitor's AdviseHint
  uint32_t rewrites = 0;
  uint32_t useless = 0;
  uint32_t fences = 0;      // fences attributed to this region

  // Persistent pattern state.
  uint32_t intervals_since_read = 0;  // written-but-not-read streak
  uint32_t age = 0;                   // intervals since last change
  uint32_t last_nr_accesses = 0;      // previous interval's samples (merge)
  SchemeVerdict verdict;

  // Probe bookkeeping for suppressed regions.
  uint32_t since_probe = 0;
  uint32_t probe_grant_lines = 0;  // lines pre-admitted by AdviseSweep

  // Lifetime counters (survive merges; stay with the parent on split).
  uint64_t total_suppressed = 0;
  uint64_t total_probes = 0;
};

// One scheme-action log entry: region verdict changes, split/merge events.
struct MonitorAction {
  enum class Kind : uint8_t { kVerdict, kSplit, kMerge };
  Kind kind = Kind::kVerdict;
  uint64_t interval = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  SchemeVerdict verdict;  // kVerdict only

  std::string ToString() const;
};

class RegionMonitor : public AccessSampleHook,
                      public PrestoreHook,
                      public RegionAdvisor {
 public:
  // Throws std::invalid_argument when config.Validate() rejects.
  RegionMonitor(Machine& machine, MonitorConfig config = {});

  // Registers [start, end) for monitoring as one initial region. Call for
  // each span of interest (e.g. one per shard value arena) BEFORE Attach();
  // spans must be disjoint and non-empty. Throws on overlap.
  void Monitor(uint64_t start, uint64_t end);

  // Installs the monitor on the machine's sampling + pre-store observation
  // paths. The monitor must outlive the machine's measured runs.
  void Attach();
  // Uninstalls the sampling hook (the pre-store hook vector is shared;
  // clear it via Machine::ClearPrestoreHooks with cores quiesced).
  void DetachSampler();

  // ---- AccessSampleHook ----
  uint32_t SamplePeriod() const override { return config_.sample_period; }
  void OnSampledAccess(uint8_t core, uint64_t line_addr, bool is_write,
                       uint64_t now) override;

  // ---- PrestoreHook (pure observer: never drops) ----
  HintFate OnPrestoreHint(uint8_t core, uint64_t line_addr, PrestoreOp op,
                          uint64_t now) override;
  void OnUselessHint(uint8_t core, uint64_t line_addr, PrestoreOp op) override;
  void OnRewriteAfterClean(uint8_t core, uint64_t line_addr,
                           uint64_t now) override;
  void OnFence(uint8_t core, uint64_t now) override;

  // ---- RegionAdvisor (the governor's per-region verdict source) ----
  HintFate AdviseHint(uint8_t core, uint64_t line_addr, PrestoreOp op,
                      uint64_t now) override;

  // Host-side gate for the serve batch-close clean sweep over [addr,
  // addr+size): kDrop means "skip this slot's Prestore call entirely".
  // Suppressed regions still leak every kProbePeriod-th sweep through (as a
  // pre-granted probe) so recovery sensing survives host-side gating.
  HintFate AdviseSweep(uint64_t addr, uint64_t size);

  // Current verdict for the region covering `addr` (default verdict when
  // unmonitored). For tests and the offline/online cross-check.
  SchemeVerdict VerdictAt(uint64_t addr) const;

  // ---- Introspection ----

  struct Snapshot {
    uint64_t samples = 0;
    uint64_t intervals = 0;
    uint64_t splits = 0;
    uint64_t merges = 0;
    uint64_t verdict_changes = 0;
    uint64_t suppressed_hints = 0;   // via AdviseHint
    uint64_t suppressed_sweeps = 0;  // via AdviseSweep
    uint64_t probe_admits = 0;
    std::vector<MonitorRegion> regions;  // sorted by start
  };
  Snapshot TakeSnapshot() const;

  // FNV-1a digest over the region tree, verdicts and the full action log —
  // the byte-identical determinism guard (same seed + trace => same
  // digest).
  uint64_t DigestState() const;

  // The most recent action-log entries (bounded; the digest covers all).
  std::vector<MonitorAction> RecentActions() const;

  std::string Summary() const;

  const MonitorConfig& config() const { return config_; }

  // Lower bound on the region count: merging stops at this many regions.
  static constexpr uint32_t kMinRegions = 10;
  // Adjacent regions merge when their sampled access counts differ by at
  // most this fraction of the busier one (and their verdicts agree).
  static constexpr double kMergeHomogeneity = 0.25;
  // In a suppressed region, admit every Nth hint as a recovery probe.
  static constexpr uint32_t kProbePeriod = 16;
  // Seed for the split-offset RNG (part of the determinism contract).
  static constexpr uint64_t kSeed = 1;

 private:
  // Index of the region containing `addr`, or SIZE_MAX.
  size_t FindRegion(uint64_t addr) const;
  void Aggregate(uint64_t now);
  void EvaluateRegions();
  void MergeRegions();
  void SplitRegions();
  void LogAction(const MonitorAction& action);

  Machine& machine_;
  const MonitorConfig config_;
  const uint64_t line_size_;
  bool attached_ = false;

  std::vector<MonitorRegion> regions_;  // sorted by start; spans disjoint
  uint32_t num_ranges_ = 0;
  Xoshiro256 rng_;

  uint64_t samples_ = 0;
  uint64_t interval_samples_ = 0;
  uint64_t intervals_ = 0;
  uint64_t splits_ = 0;
  uint64_t merges_ = 0;
  uint64_t verdict_changes_ = 0;
  uint64_t suppressed_hints_ = 0;
  uint64_t suppressed_sweeps_ = 0;
  uint64_t probe_admits_ = 0;

  // Last sampled write line per core, for fence attribution.
  uint64_t last_core_write_[kMaxCores] = {};

  // Bounded action log + rolling digest over every entry ever appended.
  static constexpr size_t kMaxActions = 4096;
  std::vector<MonitorAction> actions_;
  uint64_t total_actions_ = 0;
  uint64_t actions_digest_;
};

}  // namespace prestore

#endif  // SRC_MONITOR_REGION_MONITOR_H_
