#include "src/robust/governor.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "src/sim/machine.h"

namespace prestore {

namespace {

// Device-pressure modulation: every kDeviceSamplePeriod hint attempts the
// target device's internal backlog and write amplification are sampled;
// while either is past its threshold, wasted writebacks hurt more, so the
// rewrite backoff threshold is scaled down (more aggressive).
constexpr uint32_t kDeviceSamplePeriod = 256;
constexpr uint64_t kPressureBacklogCycles = 100000;
constexpr double kPressureWriteAmp = 2.0;
constexpr double kPressureRateScale = 0.5;

double HeadroomOf(const DeviceConfig& dev, uint32_t line_size) {
  if (dev.kind == DeviceKind::kPmem && dev.internal_block_size > line_size) {
    return static_cast<double>(dev.internal_block_size) /
           static_cast<double>(line_size);
  }
  return 1.0;
}

}  // namespace

PrestoreGovernor::PrestoreGovernor(Machine& machine, GovernorConfig config)
    : machine_(machine), config_(config) {
  const std::string error = config_.Validate();
  if (!error.empty()) {
    throw std::invalid_argument("GovernorConfig: " + error);
  }
  const MachineConfig& mc = machine.config();
  dram_headroom_ = HeadroomOf(mc.dram, mc.line_size);
  target_headroom_ = HeadroomOf(mc.target, mc.line_size);
}

void PrestoreGovernor::Attach() { machine_.AddPrestoreHook(this); }

RegionBackoff& PrestoreGovernor::TouchRegion(uint64_t key) {
  auto it = region_index_.find(key);
  if (it != region_index_.end()) {
    region_lru_.splice(region_lru_.begin(), region_lru_, it->second);
    return region_lru_.front().backoff;
  }
  region_lru_.push_front(TrackedRegion{key, RegionBackoff{}});
  region_index_[key] = region_lru_.begin();
  if (region_lru_.size() > kMaxTrackedRegions) {
    region_index_.erase(region_lru_.back().key);
    region_lru_.pop_back();
    ++region_evictions_;
  }
  return region_lru_.front().backoff;
}

double PrestoreGovernor::HeadroomFor(uint64_t line_addr) const {
  return line_addr >= kTargetBase ? target_headroom_ : dram_headroom_;
}

void PrestoreGovernor::SampleDevicePressure(uint64_t now) {
  last_backlog_ = machine_.target().InternalBacklogAt(now);
  last_write_amp_ = machine_.target().Stats().WriteAmplification();
  under_pressure_ = last_backlog_ >= kPressureBacklogCycles ||
                    last_write_amp_ >= kPressureWriteAmp;
}

void PrestoreGovernor::EvaluateGate() {
  const uint64_t window_attempts = attempts_ - gate_last_attempts_;
  if (window_attempts < config_.global_eval_window) {
    return;
  }
  const uint64_t window_fences = fences_ - gate_last_fences_;
  const double fence_rate = static_cast<double>(window_fences) /
                            static_cast<double>(window_attempts);
  if (!gate_closed_ && fence_rate < kFenceRateLow) {
    gate_closed_ = true;
  } else if (gate_closed_ && fence_rate > kFenceRateHigh) {
    gate_closed_ = false;
  }
  gate_last_attempts_ = attempts_;
  gate_last_fences_ = fences_;
}

HintFate PrestoreGovernor::OnPrestoreHint(uint8_t core, uint64_t line_addr,
                                          PrestoreOp op, uint64_t now) {
  ++attempts_;
  if (attempts_ % kDeviceSamplePeriod == 0) {
    SampleDevicePressure(now);
  }
  EvaluateGate();

  // Gate first: when the device has no amplification headroom and the
  // workload does not fence, no hint to that device can help, so the region
  // machinery never even sees the hint (its windows would be polluted by
  // hints that were doomed for an unrelated reason).
  if (gate_closed_ && HeadroomFor(line_addr) <= 1.0) {
    ++suppressed_by_gate_;
    return HintFate::kDrop;
  }

  // An installed advisor (the adaptive region monitor) replaces the
  // fixed-shift backoff table as the per-region decision source (gate and
  // pressure sampling above still apply).
  if (advisor_ != nullptr) {
    if (advisor_->AdviseHint(core, line_addr, op, now) == HintFate::kDrop) {
      ++suppressed_by_monitor_;
      return HintFate::kDrop;
    }
    ++admitted_;
    return HintFate::kIssue;
  }

  RegionBackoff& region = TouchRegion(line_addr >> kRegionShift);
  const double threshold =
      under_pressure_ ? config_.backoff_rewrite_rate * kPressureRateScale
                      : config_.backoff_rewrite_rate;
  if (!region.OnHint(config_, threshold)) {
    ++suppressed_by_region_;
    return HintFate::kDrop;
  }
  ++admitted_;
  return HintFate::kIssue;
}

void PrestoreGovernor::OnUselessHint(uint8_t core, uint64_t line_addr,
                                     PrestoreOp op) {
  (void)core;
  (void)op;
  if (advisor_ != nullptr) {
    return;  // the monitor observes useless hints through its own hook
  }
  TouchRegion(line_addr >> kRegionShift).OnUseless();
}

void PrestoreGovernor::OnRewriteAfterClean(uint8_t core, uint64_t line_addr,
                                           uint64_t now) {
  (void)core;
  (void)now;
  if (advisor_ != nullptr) {
    return;  // the monitor observes rewrites through its own hook
  }
  TouchRegion(line_addr >> kRegionShift).OnRewrite();
}

void PrestoreGovernor::OnFence(uint8_t core, uint64_t now) {
  (void)core;
  (void)now;
  ++fences_;
}

PrestoreGovernor::Snapshot PrestoreGovernor::TakeSnapshot() const {
  Snapshot snap;
  snap.attempts = attempts_;
  snap.admitted = admitted_;
  snap.suppressed =
      suppressed_by_gate_ + suppressed_by_region_ + suppressed_by_monitor_;
  snap.suppressed_by_gate = suppressed_by_gate_;
  snap.suppressed_by_region = suppressed_by_region_;
  snap.suppressed_by_monitor = suppressed_by_monitor_;
  snap.region_evictions = region_evictions_;
  snap.fences = fences_;
  snap.gate_closed = gate_closed_;
  snap.under_pressure = under_pressure_;
  snap.last_backlog = last_backlog_;
  snap.last_write_amp = last_write_amp_;
  snap.regions.reserve(region_lru_.size());
  for (const TrackedRegion& tracked : region_lru_) {
    const RegionBackoff& region = tracked.backoff;
    RegionSnapshot rs;
    rs.region_base = tracked.key << kRegionShift;
    rs.state = region.state();
    rs.admitted = region.admitted();
    rs.suppressed = region.suppressed();
    rs.rewrites = region.rewrites();
    rs.useless = region.useless();
    rs.backoffs = region.backoffs();
    rs.reopens = region.reopens();
    snap.regions.push_back(rs);
  }
  std::sort(snap.regions.begin(), snap.regions.end(),
            [](const RegionSnapshot& a, const RegionSnapshot& b) {
              return a.region_base < b.region_base;
            });
  return snap;
}

std::string PrestoreGovernor::Summary() const {
  const Snapshot snap = TakeSnapshot();
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "governor: attempts=%" PRIu64 " admitted=%" PRIu64
                " suppressed=%" PRIu64 " (gate=%" PRIu64 " region=%" PRIu64
                " monitor=%" PRIu64 ") evictions=%" PRIu64 " fences=%" PRIu64
                " gate_closed=%d pressure=%d wa=%.2f\n",
                snap.attempts, snap.admitted, snap.suppressed,
                snap.suppressed_by_gate, snap.suppressed_by_region,
                snap.suppressed_by_monitor, snap.region_evictions,
                snap.fences, snap.gate_closed ? 1 : 0,
                snap.under_pressure ? 1 : 0, snap.last_write_amp);
  out += buf;
  for (const RegionSnapshot& r : snap.regions) {
    if (r.suppressed == 0 && r.backoffs == 0) {
      continue;  // only regions the governor acted on are interesting
    }
    std::snprintf(buf, sizeof(buf),
                  "  region 0x%" PRIx64 ": %s admitted=%" PRIu64
                  " suppressed=%" PRIu64 " rewrites=%" PRIu64
                  " useless=%" PRIu64 " backoffs=%" PRIu32
                  " reopens=%" PRIu32 "\n",
                  r.region_base,
                  r.state == RegionBackoff::State::kOpen ? "open" : "backoff",
                  r.admitted, r.suppressed, r.rewrites, r.useless, r.backoffs,
                  r.reopens);
    out += buf;
  }
  return out;
}

}  // namespace prestore
