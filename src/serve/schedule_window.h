// Conservative peer-skew window for open-loop load generators.
//
// Open-loop clients run through simulated arrival schedules at their own
// pace; without a brake one client can race hundreds of intervals ahead of
// a peer whose core sits past the scheduler's round deadline, the shard
// workers' clocks follow the leader, and the straggler's requests are then
// measured late by the full divergence. The classic fix is the conservative-window
// rule of parallel discrete-event simulation: nobody's schedule may run
// more than a bounded horizon ahead of the slowest peer's.
//
// An exact scan would take an O(clients) min over every client's position
// per send — fine for a handful of client cores, hopeless for the
// cluster's thousands of multiplexed logical clients. This window instead
// quantizes positions into window-sized buckets: a ring of occupancy
// counts, a monotonic min-bucket cursor advanced over emptied buckets, and
// O(1) amortized work per advance. The quantized minimum is a lower bound
// on the true minimum, so the gate is strictly MORE conservative than the
// exact scan — holds cost no simulated time.
//
// One host thread drives every client fiber (DESIGN.md §12), so the
// window needs no synchronization.
#ifndef SRC_SERVE_SCHEDULE_WINDOW_H_
#define SRC_SERVE_SCHEDULE_WINDOW_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace prestore {

class ScheduleWindow {
 public:
  // `window_cycles` is the bucket width (one arrival interval); a client
  // may fire while its position is within `horizon_windows` buckets of the
  // slowest peer's. `start` registers every client at the run's base time,
  // so clients that have not reached their first Advance hold the rest
  // near the start.
  ScheduleWindow(uint32_t clients, uint64_t window_cycles,
                 uint64_t horizon_windows, uint64_t start)
      : window_(std::max<uint64_t>(1, window_cycles)),
        horizon_(std::max<uint64_t>(1, horizon_windows)),
        ring_(std::bit_ceil(horizon_ + 4)),
        mask_(ring_ - 1),
        counts_(ring_, 0),
        bucket_(clients, start / window_),
        alive_(clients),
        min_bucket_(start / window_) {
    counts_[(start / window_) & mask_] = clients;
  }

  // Publishes client `c`'s new schedule position (its next unfired send;
  // UINT64_MAX once the client has sent its last request). Positions must
  // be nondecreasing per client.
  void Advance(uint32_t c, uint64_t next_send) {
    const uint64_t nb =
        next_send == UINT64_MAX ? UINT64_MAX : next_send / window_;
    const uint64_t ob = bucket_[c];
    if (nb == ob) {
      return;
    }
    if (nb == UINT64_MAX) {
      --alive_;
    } else {
      ++counts_[nb & mask_];
    }
    --counts_[ob & mask_];
    bucket_[c] = nb;
  }

  // May a client whose next scheduled send is `next_send` fire now, or must
  // it hold (in host time) for stragglers? The horizon admits one bucket of
  // slack for the quantization itself.
  bool MayFire(uint64_t next_send) {
    return next_send / window_ <= CurrentMin() + horizon_;
  }

  uint64_t window_cycles() const { return window_; }

 private:
  // The slowest live client's bucket. Advances the cursor over drained
  // buckets; stops at the first occupied bucket or when no client is live.
  uint64_t CurrentMin() {
    while (alive_ > 0 && counts_[min_bucket_ & mask_] == 0) {
      ++min_bucket_;
    }
    return min_bucket_;
  }

  const uint64_t window_;
  const uint64_t horizon_;
  const uint64_t ring_;
  const uint64_t mask_;
  std::vector<uint64_t> counts_;  // clients per bucket, ring-indexed
  std::vector<uint64_t> bucket_;  // per client
  uint64_t alive_;                // clients that have not sent their last
  uint64_t min_bucket_;
};

}  // namespace prestore

#endif  // SRC_SERVE_SCHEDULE_WINDOW_H_
