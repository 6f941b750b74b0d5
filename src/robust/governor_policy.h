// Pure hysteresis policy for the adaptive pre-store governor.
//
// Header-only and dependency-free so both backends share it: the simulator
// governor (src/robust/governor.h) feeds it simulated signals, and the
// hardware wrapper (src/hw/hw_prestore.h) feeds it software-observed ones.
//
// Per region (an aligned 2^kRegionShift-byte address range) the policy runs
// a two-state machine:
//
//   kOpen    — hints are admitted. Every `window_hints` admitted hints the
//              region's rewrite rate (stores that re-dirtied data a clean
//              wrote back: the Listing-3 / §7.4.2 misuse signal) and
//              useless rate (hints that moved nothing: the §7.4.1 overhead
//              signal) are evaluated; crossing a backoff threshold moves
//              the region to kBackoff.
//   kBackoff — hints are suppressed, except an occasional probe (every
//              `probe_period`-th hint) that keeps sensing the regime.
//              After `probe_window` probes, rates at or below the reopen
//              thresholds move the region back to kOpen.
//
// The backoff thresholds sit well above the reopen thresholds (hysteresis)
// so a region near a boundary does not flap.
#ifndef SRC_ROBUST_GOVERNOR_POLICY_H_
#define SRC_ROBUST_GOVERNOR_POLICY_H_

#include <cstdint>
#include <string>

namespace prestore {

// Regions are 2^kRegionShift bytes (64 KiB): coarse enough that streaming
// workloads reach a verdict early in each region, fine enough to isolate a
// misused scratch buffer from its neighbours.
inline constexpr uint64_t kRegionShift = 16;

// Useless-rate hysteresis: back off when almost every hint moved nothing;
// probes must come back at or below the recovered rate to reopen.
inline constexpr double kBackoffUselessRate = 0.9;
inline constexpr double kRecoveredUselessRate = 0.5;

// Global useless-overhead gate band: on devices with no write-amplification
// headroom (internal block == cache line) pre-stores can only help by
// overlapping publication with fences; a workload that (almost) never
// fences gains nothing from them (§7.4.1). The gate closes when the fence
// rate per hint attempt falls below the low rate and reopens above the
// high one.
inline constexpr double kFenceRateLow = 1.0 / 4096.0;
inline constexpr double kFenceRateHigh = 1.0 / 1024.0;

struct GovernorConfig {
  // ---- Per-region hysteresis (rewrite / useless regimes) ----
  uint32_t window_hints = 64;          // admitted hints per evaluation
  double backoff_rewrite_rate = 0.5;   // enter backoff at >= this
  double reopen_rewrite_rate = 0.125;  // probes must reach <= this
  uint32_t probe_period = 64;  // in backoff, admit every Nth hint
  uint32_t probe_window = 8;   // probes per reopen evaluation
  // Consecutive hot windows required before the FIRST backoff. Debounces
  // bursts: a multi-line element cleaned and later rewritten delivers its
  // rewrites as one burst (64 lines for one 4 KiB element), so a lone
  // benign random repeat can saturate a single window's rewrite rate.
  // Sustained misuse (Listing 3, the FT scratch, the IS scatter) keeps
  // every window hot and still backs off within
  // `backoff_confirm_windows * window_hints` hints. A region that has
  // already backed off once re-enters backoff after a single hot window:
  // its misuse history outweighs the lone-burst explanation.
  uint32_t backoff_confirm_windows = 2;

  // ---- Global useless-overhead gate ----
  // Evaluated every `global_eval_window` hint attempts over the fences
  // observed in that window (the kFenceRateLow/kFenceRateHigh band).
  uint64_t global_eval_window = 256;

  // Empty string when the configuration is coherent; otherwise a
  // human-readable description of the first problem found (the
  // ServeConfig::Validate idiom — PrestoreGovernor's constructor throws it).
  std::string Validate() const {
    if (window_hints == 0) {
      return "window_hints must be > 0";
    }
    if (backoff_rewrite_rate < 0.0 || backoff_rewrite_rate > 1.0 ||
        reopen_rewrite_rate < 0.0 ||
        reopen_rewrite_rate > backoff_rewrite_rate) {
      return "rewrite rates must satisfy 0 <= reopen <= backoff <= 1";
    }
    if (probe_period == 0 || probe_window == 0) {
      return "probe_period and probe_window must be > 0";
    }
    if (backoff_confirm_windows == 0) {
      return "backoff_confirm_windows must be > 0";
    }
    if (global_eval_window == 0) {
      return "global_eval_window must be > 0";
    }
    return "";
  }
};

// The per-region state machine. Not synchronized: callers serialize access.
class RegionBackoff {
 public:
  enum class State : uint8_t { kOpen, kBackoff };

  // Accounts one hint; returns true if it should be admitted.
  // `backoff_rewrite_rate` is passed per call so device pressure can scale
  // it without touching per-region state.
  bool OnHint(const GovernorConfig& cfg, double backoff_rewrite_rate) {
    // Windows are evaluated lazily at the START of the hint that follows a
    // completed window, never at its last hint: rewrite/useless feedback
    // for a hint arrives only after the application's next store, so an
    // eager evaluation would always miss the final hint's verdict.
    if (state_ == State::kOpen) {
      if (window_hints_ >= cfg.window_hints) {
        const double rewrite_rate =
            static_cast<double>(window_rewrites_) / window_hints_;
        const double useless_rate =
            static_cast<double>(window_useless_) / window_hints_;
        window_hints_ = window_rewrites_ = window_useless_ = 0;
        if (rewrite_rate >= backoff_rewrite_rate ||
            useless_rate >= kBackoffUselessRate) {
          const uint32_t needed =
              backoffs_ > 0 ? 1 : cfg.backoff_confirm_windows;
          if (++hot_windows_ >= needed) {
            state_ = State::kBackoff;
            ++backoffs_;
            hot_windows_ = 0;
            probe_count_ = probe_rewrites_ = probe_useless_ = 0;
            since_probe_ = 0;
            ++suppressed_;
            return false;
          }
        } else {
          hot_windows_ = 0;
        }
      }
      ++window_hints_;
      ++admitted_;
      return true;
    }
    // kBackoff: suppress, except periodic probes.
    if (probe_count_ >= cfg.probe_window) {
      const double rewrite_rate =
          static_cast<double>(probe_rewrites_) / probe_count_;
      const double useless_rate =
          static_cast<double>(probe_useless_) / probe_count_;
      probe_count_ = probe_rewrites_ = probe_useless_ = 0;
      if (rewrite_rate <= cfg.reopen_rewrite_rate &&
          useless_rate <= kRecoveredUselessRate) {
        state_ = State::kOpen;
        ++reopens_;
        window_hints_ = 1;
        window_rewrites_ = window_useless_ = 0;
        ++admitted_;
        return true;
      }
    }
    if (++since_probe_ < cfg.probe_period) {
      ++suppressed_;
      return false;
    }
    since_probe_ = 0;
    ++probe_count_;
    ++admitted_;
    return true;
  }

  void OnRewrite() {
    ++rewrites_;
    if (state_ == State::kOpen) {
      ++window_rewrites_;
    } else {
      ++probe_rewrites_;
    }
  }

  void OnUseless() {
    ++useless_;
    if (state_ == State::kOpen) {
      ++window_useless_;
    } else {
      ++probe_useless_;
    }
  }

  State state() const { return state_; }
  uint64_t admitted() const { return admitted_; }
  uint64_t suppressed() const { return suppressed_; }
  uint64_t rewrites() const { return rewrites_; }
  uint64_t useless() const { return useless_; }
  uint32_t backoffs() const { return backoffs_; }
  uint32_t reopens() const { return reopens_; }

 private:
  State state_ = State::kOpen;

  // Lifetime counters (exported in snapshots).
  uint64_t admitted_ = 0;
  uint64_t suppressed_ = 0;
  uint64_t rewrites_ = 0;
  uint64_t useless_ = 0;
  uint32_t backoffs_ = 0;
  uint32_t reopens_ = 0;

  // Open-state evaluation window.
  uint32_t window_hints_ = 0;
  uint32_t window_rewrites_ = 0;
  uint32_t window_useless_ = 0;
  uint32_t hot_windows_ = 0;  // consecutive windows at/above a threshold

  // Backoff-state probing.
  uint32_t since_probe_ = 0;
  uint32_t probe_count_ = 0;
  uint32_t probe_rewrites_ = 0;
  uint32_t probe_useless_ = 0;
};

}  // namespace prestore

#endif  // SRC_ROBUST_GOVERNOR_POLICY_H_
