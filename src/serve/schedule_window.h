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
// The original ScheduleBoard kept one atomic position per client and took
// an O(clients) min over all of them per send — fine for a handful of
// client cores, hopeless for the cluster's thousands of multiplexed
// logical clients. This generalization quantizes positions into
// window-sized buckets: a ring of occupancy counts, a monotonic min-bucket
// cursor advanced by CAS over emptied buckets, and O(1) amortized work per
// advance. The quantized minimum is a lower bound on the true minimum, so
// the gate is strictly MORE conservative than the exact scan — holds cost
// no simulated time.
//
// Contract: Advance(c, ...) has a single writer per client (the fiber
// driving that client); MayFire may be called from any client.
#ifndef SRC_SERVE_SCHEDULE_WINDOW_H_
#define SRC_SERVE_SCHEDULE_WINDOW_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace prestore {

class ScheduleWindow {
 public:
  // `window_cycles` is the bucket width (one arrival interval); a client
  // may fire while its position is within `horizon_windows` buckets of the
  // slowest peer's. `start` registers every client at the run's base time,
  // so clients that have not reached their first Advance hold the rest
  // near the start — the start barrier the board's zero-init provided.
  ScheduleWindow(uint32_t clients, uint64_t window_cycles,
                 uint64_t horizon_windows, uint64_t start)
      : window_(std::max<uint64_t>(1, window_cycles)),
        horizon_(std::max<uint64_t>(1, horizon_windows)),
        ring_(std::bit_ceil(horizon_ + 4)),
        mask_(ring_ - 1),
        counts_(new std::atomic<uint64_t>[ring_]),
        bucket_(clients, start / window_),
        alive_(clients),
        min_bucket_(start / window_) {
    for (uint64_t i = 0; i < ring_; ++i) {
      counts_[i].store(0, std::memory_order_relaxed);
    }
    counts_[(start / window_) & mask_].store(clients,
                                             std::memory_order_relaxed);
  }

  // Publishes client `c`'s new schedule position (its next unfired send;
  // UINT64_MAX once the client has sent its last request). Positions must
  // be nondecreasing per client. Increment-before-decrement keeps the
  // client counted in SOME bucket <= its position throughout the move, so
  // a concurrent min scan can never overshoot a live client.
  void Advance(uint32_t c, uint64_t next_send) {
    const uint64_t nb =
        next_send == UINT64_MAX ? UINT64_MAX : next_send / window_;
    const uint64_t ob = bucket_[c];
    if (nb == ob) {
      return;
    }
    if (nb == UINT64_MAX) {
      alive_.fetch_sub(1, std::memory_order_acq_rel);
    } else {
      counts_[nb & mask_].fetch_add(1, std::memory_order_acq_rel);
    }
    counts_[ob & mask_].fetch_sub(1, std::memory_order_acq_rel);
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
  // The slowest live client's bucket (a lower bound: the cursor lags moves
  // by at most the in-flight transitions). Advances over drained buckets by
  // CAS so concurrent scanners share the work; stops at the first occupied
  // bucket or when no client is live.
  uint64_t CurrentMin() {
    uint64_t m = min_bucket_.load(std::memory_order_acquire);
    while (alive_.load(std::memory_order_acquire) > 0 &&
           counts_[m & mask_].load(std::memory_order_acquire) == 0) {
      uint64_t expected = m;
      min_bucket_.compare_exchange_weak(expected, m + 1,
                                        std::memory_order_acq_rel);
      m = min_bucket_.load(std::memory_order_acquire);
    }
    return m;
  }

  const uint64_t window_;
  const uint64_t horizon_;
  const uint64_t ring_;
  const uint64_t mask_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::vector<uint64_t> bucket_;  // per client; single writer each
  std::atomic<uint64_t> alive_;
  std::atomic<uint64_t> min_bucket_;
};

}  // namespace prestore

#endif  // SRC_SERVE_SCHEDULE_WINDOW_H_
