// Observation / intervention points the simulator exposes to the robustness
// layer (src/robust): deterministic fault injection hooks into the device
// timing paths, and pre-store hint hooks into the core's issue path.
//
// Hooks are installed on a Machine (or a Device) BEFORE a measured run and
// must stay alive until the run finishes. Callbacks run on the host thread
// driving the cores (scheduler.h), never concurrently.
#ifndef SRC_SIM_HOOKS_H_
#define SRC_SIM_HOOKS_H_

#include <cstdint>

#include "src/core/prestore.h"

namespace prestore {

// Device-side fault injection. A null hook (the default) means "no faults";
// it sits on the device timing fast path, so it must be cheap.
class DeviceFaultHook {
 public:
  virtual ~DeviceFaultHook() = default;

  // Additional cycles added to the completion of a read/write issued at
  // `now` (latency spike windows).
  virtual uint64_t ExtraLatency(bool is_write, uint64_t now) = 0;
};

// What a pre-store hint hook decides about one line-granular hint.
enum class HintFate : uint8_t {
  kIssue,  // let the hint through
  kDrop,   // suppress it (no cycles charged, no device work)
};

// Pre-store issue-path hook: consulted once per line covered by a
// Core::Prestore call, before the hint issues. Several hooks may be
// installed (e.g. a region monitor and a governor); a hint issues only if
// every hook returns kIssue. The observation callbacks fire regardless of
// which hook dropped the hint.
class PrestoreHook {
 public:
  virtual ~PrestoreHook() = default;

  // Decide the fate of the hint.
  virtual HintFate OnPrestoreHint(uint8_t core, uint64_t line_addr,
                                  PrestoreOp op, uint64_t now) = 0;

  // The hint issued but moved nothing (demote of an absent line, clean of a
  // clean line) — the paper's "useless overhead" regime.
  virtual void OnUselessHint(uint8_t core, uint64_t line_addr, PrestoreOp op) {
    (void)core;
    (void)line_addr;
    (void)op;
  }

  // A store re-dirtied a line whose data a clean pre-store had written back
  // — the Listing-3 / §7.4.2 misuse regime (the writeback was wasted).
  virtual void OnRewriteAfterClean(uint8_t core, uint64_t line_addr,
                                   uint64_t now) {
    (void)core;
    (void)line_addr;
    (void)now;
  }

  // The core executed a full fence (signals that publication latency is on
  // the critical path, i.e. demote/clean hints have something to overlap).
  virtual void OnFence(uint8_t core, uint64_t now) {
    (void)core;
    (void)now;
  }
};

// Sampled access observation (the DAMON-style monitor's substrate,
// src/monitor). At most one sampler is installed per machine
// (Machine::SetAccessSampleHook); each core then delivers every
// SamplePeriod()-th line-granular load/store it executes. Sampling is the
// overhead contract: an unobserved run pays one predicted branch per line
// access, an observed run pays one virtual call per period.
class AccessSampleHook {
 public:
  virtual ~AccessSampleHook() = default;

  // Line accesses between samples, per core (>= 1). Read once at install
  // time (RefreshFastPathFlags caches it core-locally); must be constant
  // for the hook's installed lifetime.
  virtual uint32_t SamplePeriod() const = 0;

  // Every SamplePeriod()-th line access of core `core`. `now` is the
  // core's local clock at the sampled access.
  virtual void OnSampledAccess(uint8_t core, uint64_t line_addr,
                               bool is_write, uint64_t now) = 0;
};

}  // namespace prestore

#endif  // SRC_SIM_HOOKS_H_
