#include "src/monitor/region_monitor.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "src/sim/machine.h"

namespace prestore {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t HashAction(const MonitorAction& a) {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<uint64_t>(a.kind));
  h = FnvMix(h, a.interval);
  h = FnvMix(h, a.start);
  h = FnvMix(h, a.end);
  h = FnvMix(h, static_cast<uint64_t>(a.verdict.advice));
  h = FnvMix(h, static_cast<uint64_t>(a.verdict.gate));
  h = FnvMix(h, a.verdict.rule);
  return h;
}

}  // namespace

std::string MonitorConfig::Validate() const {
  if (sample_period == 0) {
    return "sample_period must be > 0";
  }
  if (aggregation_samples == 0) {
    return "aggregation_samples must be > 0";
  }
  if (max_regions < RegionMonitor::kMinRegions) {
    return "max_regions must be >= " +
           std::to_string(RegionMonitor::kMinRegions);
  }
  if (max_regions > 1000) {
    return "max_regions must be <= 1000 (the bounded-overhead contract)";
  }
  return "";
}

std::string MonitorAction::ToString() const {
  char buf[160];
  switch (kind) {
    case Kind::kVerdict:
      std::snprintf(buf, sizeof(buf),
                    "i%" PRIu64 " verdict [0x%" PRIx64 ", 0x%" PRIx64
                    ") rule=%d advice=%s gate=%s",
                    interval, start, end,
                    verdict.rule == kNoRule ? -1
                                            : static_cast<int>(verdict.rule),
                    std::string(prestore::ToString(verdict.advice)).c_str(),
                    std::string(prestore::ToString(verdict.gate)).c_str());
      break;
    case Kind::kSplit:
      std::snprintf(buf, sizeof(buf),
                    "i%" PRIu64 " split  [0x%" PRIx64 ", 0x%" PRIx64 ")",
                    interval, start, end);
      break;
    case Kind::kMerge:
      std::snprintf(buf, sizeof(buf),
                    "i%" PRIu64 " merge  [0x%" PRIx64 ", 0x%" PRIx64 ")",
                    interval, start, end);
      break;
  }
  return buf;
}

RegionMonitor::RegionMonitor(Machine& machine, MonitorConfig config)
    : machine_(machine),
      config_(std::move(config)),
      line_size_(machine.config().line_size),
      rng_(kSeed),
      actions_digest_(kFnvOffset) {
  const std::string error = config_.Validate();
  if (!error.empty()) {
    throw std::invalid_argument("MonitorConfig: " + error);
  }
}

void RegionMonitor::Monitor(uint64_t start, uint64_t end) {
  if (attached_) {
    throw std::logic_error("RegionMonitor::Monitor after Attach");
  }
  const uint64_t aligned_start = LineBase(start, line_size_);
  const uint64_t aligned_end =
      LineBase(end + line_size_ - 1, line_size_);
  if (aligned_start >= aligned_end) {
    throw std::invalid_argument("RegionMonitor::Monitor: empty range");
  }
  for (const MonitorRegion& r : regions_) {
    if (aligned_start < r.end && r.start < aligned_end) {
      throw std::invalid_argument("RegionMonitor::Monitor: overlapping range");
    }
  }
  MonitorRegion region;
  region.start = aligned_start;
  region.end = aligned_end;
  region.range_id = num_ranges_++;
  regions_.push_back(region);
  std::sort(regions_.begin(), regions_.end(),
            [](const MonitorRegion& a, const MonitorRegion& b) {
              return a.start < b.start;
            });
}

void RegionMonitor::Attach() {
  {
    if (regions_.empty()) {
      throw std::logic_error("RegionMonitor::Attach with no monitored range");
    }
    attached_ = true;
  }
  machine_.SetAccessSampleHook(this);
  machine_.AddPrestoreHook(this);
}

void RegionMonitor::DetachSampler() { machine_.SetAccessSampleHook(nullptr); }

size_t RegionMonitor::FindRegion(uint64_t addr) const {
  // Rightmost region with start <= addr; ranges are disjoint so one
  // containment check decides.
  size_t lo = 0;
  size_t hi = regions_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (regions_[mid].start <= addr) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) {
    return SIZE_MAX;
  }
  const MonitorRegion& r = regions_[lo - 1];
  return addr < r.end ? lo - 1 : SIZE_MAX;
}

void RegionMonitor::OnSampledAccess(uint8_t core, uint64_t line_addr,
                                    bool is_write, uint64_t now) {
  ++samples_;
  const size_t idx = FindRegion(line_addr);
  if (idx != SIZE_MAX) {
    MonitorRegion& region = regions_[idx];
    if (is_write) {
      ++region.writes;
      // A sampled write is "sequential" when it lands just above the
      // previous sampled write: within twice the expected sampled stride
      // (sample_period lines) — the sampling-domain analogue of
      // DirtBuster's successor-line test.
      const uint64_t stride_budget =
          2ULL * config_.sample_period * line_size_;
      if (region.last_write_line != 0 && line_addr > region.last_write_line &&
          line_addr - region.last_write_line <= stride_budget) {
        ++region.seq_writes;
      }
      region.last_write_line = line_addr;
      if (core < kMaxCores) {
        last_core_write_[core] = line_addr;
      }
    } else {
      ++region.reads;
    }
  }
  if (++interval_samples_ >= config_.aggregation_samples) {
    Aggregate(now);
  }
}

HintFate RegionMonitor::OnPrestoreHint(uint8_t core, uint64_t line_addr,
                                       PrestoreOp op, uint64_t now) {
  (void)core;
  (void)op;
  (void)now;
  const size_t idx = FindRegion(line_addr);
  if (idx != SIZE_MAX) {
    ++regions_[idx].attempts;
  }
  return HintFate::kIssue;  // pure observer: the governor enforces
}

void RegionMonitor::OnUselessHint(uint8_t core, uint64_t line_addr,
                                  PrestoreOp op) {
  (void)core;
  (void)op;
  const size_t idx = FindRegion(line_addr);
  if (idx != SIZE_MAX) {
    ++regions_[idx].useless;
  }
}

void RegionMonitor::OnRewriteAfterClean(uint8_t core, uint64_t line_addr,
                                        uint64_t now) {
  (void)core;
  (void)now;
  const size_t idx = FindRegion(line_addr);
  if (idx != SIZE_MAX) {
    ++regions_[idx].rewrites;
  }
}

void RegionMonitor::OnFence(uint8_t core, uint64_t now) {
  (void)now;
  // Attribute the fence to the region this core last (sampled-)wrote: the
  // write it orders almost certainly went there. Coarse, but the fence rule
  // only needs to see fence-bound writers stand out.
  if (core >= kMaxCores || last_core_write_[core] == 0) {
    return;
  }
  const size_t idx = FindRegion(last_core_write_[core]);
  if (idx != SIZE_MAX) {
    ++regions_[idx].fences;
  }
}

HintFate RegionMonitor::AdviseHint(uint8_t core, uint64_t line_addr,
                                   PrestoreOp op, uint64_t now) {
  (void)core;
  (void)op;
  (void)now;
  const size_t idx = FindRegion(line_addr);
  if (idx == SIZE_MAX) {
    return HintFate::kIssue;  // unmonitored address: no opinion
  }
  MonitorRegion& region = regions_[idx];
  if (region.verdict.gate != HintGate::kSuppress) {
    return HintFate::kIssue;
  }
  if (region.probe_grant_lines > 0) {
    --region.probe_grant_lines;  // pre-admitted by AdviseSweep
    ++region.total_probes;
    ++probe_admits_;
    return HintFate::kIssue;
  }
  if (++region.since_probe >= kProbePeriod) {
    region.since_probe = 0;
    ++region.total_probes;
    ++probe_admits_;
    return HintFate::kIssue;
  }
  ++region.suppressed;
  ++region.total_suppressed;
  ++suppressed_hints_;
  return HintFate::kDrop;
}

HintFate RegionMonitor::AdviseSweep(uint64_t addr, uint64_t size) {
  const size_t idx = FindRegion(LineBase(addr, line_size_));
  if (idx == SIZE_MAX) {
    return HintFate::kIssue;
  }
  MonitorRegion& region = regions_[idx];
  if (region.verdict.gate != HintGate::kSuppress) {
    return HintFate::kIssue;
  }
  if (++region.since_probe >= kProbePeriod) {
    // Grant the whole slot as one probe: the ensuing Prestore's per-line
    // AdviseHint consults consume the grant instead of re-rolling the
    // probe counter.
    region.since_probe = 0;
    region.probe_grant_lines +=
        static_cast<uint32_t>(LinesCovered(addr, size, line_size_));
    return HintFate::kIssue;
  }
  ++suppressed_sweeps_;
  return HintFate::kDrop;
}

SchemeVerdict RegionMonitor::VerdictAt(uint64_t addr) const {
  const size_t idx = FindRegion(addr);
  return idx == SIZE_MAX ? SchemeVerdict{} : regions_[idx].verdict;
}

void RegionMonitor::LogAction(const MonitorAction& action) {
  ++total_actions_;
  actions_digest_ = FnvMix(actions_digest_, HashAction(action));
  if (actions_.size() < kMaxActions) {
    actions_.push_back(action);
  }
}

void RegionMonitor::EvaluateRegions() {
  for (MonitorRegion& region : regions_) {
    const uint32_t accesses = region.reads + region.writes;
    // Issued cleans: hint attempts minus the ones this monitor suppressed
    // (exact without a governor or with the monitored governor; the global
    // gate's drops are rare enough not to matter for the rates).
    const uint32_t issued =
        region.attempts > region.suppressed
            ? region.attempts - region.suppressed
            : 0;
    if (region.reads > 0) {
      region.intervals_since_read = 0;
    } else if (region.writes > 0) {
      ++region.intervals_since_read;
    }
    // Unread draw: it keeps the split offsets, and so every recorded
    // monitor digest, unchanged.
    (void)rng_.Below((region.end - region.start) / line_size_);

    if (accesses > 0 || issued > 0) {
      SchemeStats stats;
      stats.write_fraction =
          accesses > 0 ? static_cast<double>(region.writes) / accesses : 0.0;
      stats.seq_fraction =
          region.writes > 0
              ? static_cast<double>(region.seq_writes) / region.writes
              : 0.0;
      stats.rewrite_rate =
          issued > 0 ? static_cast<double>(region.rewrites) / issued : 0.0;
      stats.useless_rate =
          issued > 0 ? static_cast<double>(region.useless) / issued : 0.0;
      stats.fence_rate =
          region.writes > 0
              ? static_cast<double>(region.fences) / region.writes
              : 0.0;
      stats.noread_intervals = region.intervals_since_read;
      stats.samples = accesses;
      stats.cleans = issued;
      SchemeVerdict verdict = EvaluateSchemeRules(stats);
      // Hysteresis on suppression reversal: while a region is suppressed,
      // most of its cleans are dropped, so an interval can end with too few
      // issued cleans to re-match the backoff rule that suppressed it.
      // Re-opening on that silence would re-admit the storm and oscillate.
      // Reversal evidence must come from actual clean flow — keep the
      // suppressed verdict until an interval that saw at least
      // kSchemeMinIntervalCleans issued cleans (the recovery probes)
      // evaluates to something else.
      if (region.verdict.gate == HintGate::kSuppress &&
          verdict.gate != HintGate::kSuppress &&
          stats.cleans < kSchemeMinIntervalCleans) {
        verdict = region.verdict;
      }
      if (verdict != region.verdict) {
        region.verdict = verdict;
        region.age = 0;
        ++verdict_changes_;
        MonitorAction action;
        action.kind = MonitorAction::Kind::kVerdict;
        action.interval = intervals_;
        action.start = region.start;
        action.end = region.end;
        action.verdict = verdict;
        LogAction(action);
      } else {
        ++region.age;
      }
    } else {
      ++region.age;  // idle interval: keep the verdict, no fresh evidence
    }

    region.last_nr_accesses = accesses;
    region.reads = region.writes = region.seq_writes = 0;
    region.attempts = region.suppressed = 0;
    region.rewrites = region.useless = region.fences = 0;
  }
}

void RegionMonitor::MergeRegions() {
  size_t i = 0;
  while (i + 1 < regions_.size() && regions_.size() > kMinRegions) {
    MonitorRegion& a = regions_[i];
    MonitorRegion& b = regions_[i + 1];
    const bool adjacent = a.range_id == b.range_id && a.end == b.start;
    const uint32_t hi = std::max(a.last_nr_accesses, b.last_nr_accesses);
    const uint32_t diff = hi - std::min(a.last_nr_accesses, b.last_nr_accesses);
    const bool homogeneous =
        hi == 0 || static_cast<double>(diff) / hi <= kMergeHomogeneity;
    if (!adjacent || !homogeneous || a.verdict != b.verdict) {
      ++i;
      continue;
    }
    a.end = b.end;
    a.last_nr_accesses += b.last_nr_accesses;
    a.age = std::min(a.age, b.age);
    a.intervals_since_read =
        std::min(a.intervals_since_read, b.intervals_since_read);
    a.last_write_line = std::max(a.last_write_line, b.last_write_line);
    a.probe_grant_lines += b.probe_grant_lines;
    a.total_suppressed += b.total_suppressed;
    a.total_probes += b.total_probes;
    regions_.erase(regions_.begin() + static_cast<ptrdiff_t>(i) + 1);
    ++merges_;
    MonitorAction action;
    action.kind = MonitorAction::Kind::kMerge;
    action.interval = intervals_;
    action.start = a.start;
    action.end = a.end;
    LogAction(action);
    // Stay at i: the merged region may swallow its next neighbour too.
  }
}

void RegionMonitor::SplitRegions() {
  // DAMON-style adaptation: split every splittable region in two at a
  // seeded line-aligned offset while the budget allows; homogeneous halves
  // re-merge next interval, heterogeneous ones expose their difference.
  const size_t before = regions_.size();
  std::vector<MonitorRegion> out;
  out.reserve(std::min<size_t>(before * 2, config_.max_regions));
  size_t budget = config_.max_regions > before
                      ? config_.max_regions - before
                      : 0;
  for (MonitorRegion& region : regions_) {
    const uint64_t lines = (region.end - region.start) / line_size_;
    if (budget == 0 || lines < 2) {
      out.push_back(region);
      continue;
    }
    const uint64_t split_at =
        region.start + (1 + rng_.Below(lines - 1)) * line_size_;
    MonitorRegion right = region;  // inherits verdict + pattern state
    right.start = split_at;
    right.last_nr_accesses = region.last_nr_accesses / 2;
    right.age = 0;
    right.since_probe = 0;
    right.probe_grant_lines = 0;
    right.total_suppressed = 0;
    right.total_probes = 0;
    right.last_write_line = 0;
    MonitorRegion left = region;
    left.end = split_at;
    left.last_nr_accesses -= right.last_nr_accesses;
    left.age = 0;
    if (left.last_write_line != 0 && left.last_write_line >= split_at) {
      left.last_write_line = 0;
    }
    out.push_back(left);
    out.push_back(right);
    --budget;
    ++splits_;
    MonitorAction action;
    action.kind = MonitorAction::Kind::kSplit;
    action.interval = intervals_;
    action.start = left.start;
    action.end = split_at;
    LogAction(action);
  }
  regions_ = std::move(out);
}

void RegionMonitor::Aggregate(uint64_t now) {
  (void)now;
  interval_samples_ = 0;
  ++intervals_;
  EvaluateRegions();
  MergeRegions();
  SplitRegions();
}

RegionMonitor::Snapshot RegionMonitor::TakeSnapshot() const {
  Snapshot snap;
  snap.samples = samples_;
  snap.intervals = intervals_;
  snap.splits = splits_;
  snap.merges = merges_;
  snap.verdict_changes = verdict_changes_;
  snap.suppressed_hints = suppressed_hints_;
  snap.suppressed_sweeps = suppressed_sweeps_;
  snap.probe_admits = probe_admits_;
  snap.regions = regions_;
  return snap;
}

uint64_t RegionMonitor::DigestState() const {
  uint64_t h = kFnvOffset;
  h = FnvMix(h, intervals_);
  h = FnvMix(h, samples_);
  h = FnvMix(h, regions_.size());
  for (const MonitorRegion& r : regions_) {
    h = FnvMix(h, r.start);
    h = FnvMix(h, r.end);
    h = FnvMix(h, r.range_id);
    h = FnvMix(h, static_cast<uint64_t>(r.verdict.advice));
    h = FnvMix(h, static_cast<uint64_t>(r.verdict.gate));
    h = FnvMix(h, r.verdict.rule);
    h = FnvMix(h, r.age);
    h = FnvMix(h, r.last_nr_accesses);
    h = FnvMix(h, r.intervals_since_read);
    h = FnvMix(h, r.total_suppressed);
    h = FnvMix(h, r.total_probes);
  }
  h = FnvMix(h, total_actions_);
  h = FnvMix(h, actions_digest_);
  h = FnvMix(h, suppressed_hints_);
  h = FnvMix(h, suppressed_sweeps_);
  h = FnvMix(h, probe_admits_);
  return h;
}

std::vector<MonitorAction> RegionMonitor::RecentActions() const {
  return actions_;
}

std::string RegionMonitor::Summary() const {
  const Snapshot snap = TakeSnapshot();
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "monitor: samples=%" PRIu64 " intervals=%" PRIu64
                " regions=%zu splits=%" PRIu64 " merges=%" PRIu64
                " verdict_changes=%" PRIu64 " suppressed=%" PRIu64
                " (sweeps=%" PRIu64 ") probes=%" PRIu64 "\n",
                snap.samples, snap.intervals, snap.regions.size(), snap.splits,
                snap.merges, snap.verdict_changes, snap.suppressed_hints,
                snap.suppressed_sweeps, snap.probe_admits);
  out += buf;
  for (const MonitorRegion& r : snap.regions) {
    if (r.verdict.rule == kNoRule && r.total_suppressed == 0) {
      continue;  // only regions with an active verdict are interesting
    }
    std::snprintf(buf, sizeof(buf),
                  "  region [0x%" PRIx64 ", 0x%" PRIx64 ") advice=%s gate=%s"
                  " age=%" PRIu32 " suppressed=%" PRIu64 " probes=%" PRIu64
                  "\n",
                  r.start, r.end,
                  std::string(prestore::ToString(r.verdict.advice)).c_str(),
                  std::string(prestore::ToString(r.verdict.gate)).c_str(),
                  r.age, r.total_suppressed, r.total_probes);
    out += buf;
  }
  return out;
}

}  // namespace prestore
