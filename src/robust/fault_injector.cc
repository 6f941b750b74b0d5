#include "src/robust/fault_injector.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/sim/machine.h"
#include "src/util/rng.h"

namespace prestore {

FaultInjector::FaultInjector(const FaultPlan& plan) : seed_(plan.seed) {
  // Expand each spec with its own generator (derived from the plan seed and
  // the spec index) so that reordering specs does not reshuffle windows.
  for (size_t si = 0; si < plan.specs.size(); ++si) {
    const FaultSpec& spec = plan.specs[si];
    Xoshiro256 rng(plan.seed ^ (0x5eedULL + 0x9e37ULL * si));
    uint64_t t = 0;
    for (uint32_t i = 0; i < spec.count; ++i) {
      // Period with ±50% uniform jitter, never zero.
      const uint64_t half = std::max<uint64_t>(1, spec.mean_period_cycles / 2);
      const uint64_t gap = half + rng.Below(2 * half);
      t += gap;
      schedule_.push_back(FaultWindow{spec.kind, t, t + spec.duration_cycles,
                                      spec.magnitude, spec.node});
    }
  }
  std::sort(schedule_.begin(), schedule_.end(),
            [](const FaultWindow& a, const FaultWindow& b) {
              if (a.start_cycle != b.start_cycle) {
                return a.start_cycle < b.start_cycle;
              }
              if (a.kind != b.kind) {
                return a.kind < b.kind;
              }
              if (a.magnitude != b.magnitude) {
                return a.magnitude < b.magnitude;
              }
              return a.node < b.node;
            });
  for (const FaultWindow& w : schedule_) {
    by_kind_[static_cast<size_t>(w.kind)].push_back(w);
  }
}

void FaultInjector::Attach(Machine& machine) {
  machine.SetDeviceFaultHook(this);
}

double FaultInjector::ActiveMagnitude(FaultKind kind, uint64_t now) const {
  const std::vector<FaultWindow>& windows = by_kind_[static_cast<size_t>(kind)];
  double magnitude = 0.0;
  // Windows of one kind are few (a schedule is tens of windows); a linear
  // scan over the kind's windows is cheaper than maintaining interval trees.
  for (const FaultWindow& w : windows) {
    if (w.start_cycle > now) {
      break;  // sorted by start: nothing later can be active
    }
    if (now < w.end_cycle) {
      magnitude = std::max(magnitude, w.magnitude);
    }
  }
  return magnitude;
}

uint64_t FaultInjector::ExtraLatency(bool is_write, uint64_t now) {
  (void)is_write;
  return static_cast<uint64_t>(ActiveMagnitude(FaultKind::kLatencySpike, now));
}

bool FaultInjector::NodeKilled(uint32_t node, uint64_t at) const {
  for (const FaultWindow& w :
       by_kind_[static_cast<size_t>(FaultKind::kNodeKill)]) {
    if (w.start_cycle > at) {
      break;  // sorted by start
    }
    if (w.node == node) {
      return true;  // kills are permanent: duration is ignored
    }
  }
  return false;
}

bool FaultInjector::NodeDraining(uint32_t node, uint64_t at) const {
  return DrainEndAfter(node, at) != 0;
}

uint64_t FaultInjector::DrainEndAfter(uint32_t node, uint64_t at) const {
  uint64_t end = 0;
  for (const FaultWindow& w :
       by_kind_[static_cast<size_t>(FaultKind::kNodeDrain)]) {
    if (w.start_cycle > at) {
      break;
    }
    if (w.node == node && at < w.end_cycle) {
      end = std::max(end, w.end_cycle);
    }
  }
  return end;
}

uint64_t FaultInjector::NodeDegradeCycles(uint32_t node, uint64_t at) const {
  uint64_t extra = 0;
  for (const FaultWindow& w :
       by_kind_[static_cast<size_t>(FaultKind::kNodeDegrade)]) {
    if (w.start_cycle > at) {
      break;
    }
    if (w.node == node && at < w.end_cycle) {
      extra += static_cast<uint64_t>(w.magnitude);
    }
  }
  return extra;
}

void FaultInjector::RecordNodeRejection(uint32_t lane, FaultKind kind,
                                        uint32_t node, uint64_t at) {
  const size_t slot = lane % kMaxCores;
  reject_log_[slot].push_back(
      RejectLogEntry{reject_log_[slot].size(), kind, node, at});
}

std::string FaultInjector::EventLog() const {
  std::string log;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "plan seed=%" PRIu64 " windows=%zu\n",
                seed_, schedule_.size());
  log += buf;
  for (const FaultWindow& w : schedule_) {
    std::snprintf(buf, sizeof(buf),
                  "window kind=%s start=%" PRIu64 " end=%" PRIu64
                  " magnitude=%.6g node=%u\n",
                  std::string(ToString(w.kind)).c_str(), w.start_cycle,
                  w.end_cycle, w.magnitude, w.node);
    log += buf;
  }
  for (size_t lane = 0; lane < kMaxCores; ++lane) {
    for (const RejectLogEntry& e : reject_log_[lane]) {
      std::snprintf(buf, sizeof(buf),
                    "reject lane=%zu ordinal=%" PRIu64 " kind=%s node=%u"
                    " at=%" PRIu64 "\n",
                    lane, e.ordinal, std::string(ToString(e.kind)).c_str(),
                    e.node, e.at);
      log += buf;
    }
  }
  return log;
}

}  // namespace prestore
