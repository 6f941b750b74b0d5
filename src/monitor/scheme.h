// The adaptive region monitor's fixed verdict rules (DESIGN.md §13).
//
// Each aggregation interval the monitor reduces every region's sampled
// counters to a SchemeStats view and applies four rules to it in order; the
// first rule whose conditions all hold supplies the region's verdict — a
// pre-store Advice (the shared offline/online vocabulary,
// src/core/prestore.h) plus a hint gate the governor enforces. The rules
// encode the paper-derived policies (§6), backing off before admitting:
//
//   0 rewritten-while-resident  -> back off (suppress: the Listing-3 misuse)
//   1 useless-dominated         -> back off (hints that moved nothing)
//   2 writes-before-fence       -> demote, admit
//   3 sequential writes, no
//       re-read within N ivals  -> clean, admit
#ifndef SRC_MONITOR_SCHEME_H_
#define SRC_MONITOR_SCHEME_H_

#include <cstdint>
#include <string_view>

#include "src/core/prestore.h"

namespace prestore {

// Per-interval, per-region view the rules read. Fractions are over this
// interval's sampled accesses; rewrite/useless rates are over the
// interval's admitted (full-rate) clean hints.
struct SchemeStats {
  double write_fraction = 0.0;   // sampled writes / sampled accesses
  double seq_fraction = 0.0;     // ascending near-successor writes / writes
  double rewrite_rate = 0.0;     // rewrites-after-clean / admitted cleans
  double useless_rate = 0.0;     // useless hints / admitted cleans
  double fence_rate = 0.0;       // attributed fences / sampled writes
  double noread_intervals = 0.0; // consecutive intervals with writes, no read
  double samples = 0.0;          // sampled accesses this interval
  double cleans = 0.0;           // admitted clean hints this interval
};

// Thresholds of the four rules. Aligned with DirtBuster's offline
// thresholds where the signals correspond (seq_fraction) and with the
// governor's hysteresis rates where they do (rewrite/useless backoff).
inline constexpr double kSchemeMinWriteFraction = 0.5;    // region is a writer
inline constexpr double kSchemeSeqFraction = 0.25;        // a sequential one
inline constexpr double kSchemeNoReadIntervals = 3.0;     // no re-read within N
inline constexpr double kSchemeFenceRate = 0.25;          // fences per write
inline constexpr double kSchemeBackoffRewriteRate = 0.5;  // rule 0
inline constexpr double kSchemeBackoffUselessRate = 0.9;  // rule 1
inline constexpr double kSchemeMinIntervalCleans = 8.0;   // backoff evidence
inline constexpr double kSchemeMinIntervalSamples = 4.0;  // admit evidence

// Rule ids, in evaluation order (SchemeVerdict::rule, the action log and
// the monitor digest record them).
inline constexpr uint32_t kRuleRewrittenWhileResident = 0;
inline constexpr uint32_t kRuleUselessDominated = 1;
inline constexpr uint32_t kRuleWritesBeforeFence = 2;
inline constexpr uint32_t kRuleSeqWritesNoReread = 3;
inline constexpr uint32_t kNoRule = ~uint32_t{0};

// What the governor does with hints into a region under this verdict.
enum class HintGate : uint8_t {
  kDefault,   // no opinion: hints flow as without a monitor
  kAdmit,     // the rule endorses the hints
  kSuppress,  // back off: drop hints (except recovery probes)
};

// A region's current verdict: the matched rule's action (kNoRule when no
// rule matched — advice kNone, gate kDefault).
struct SchemeVerdict {
  Advice advice = Advice::kNone;
  HintGate gate = HintGate::kDefault;
  uint32_t rule = kNoRule;

  bool operator==(const SchemeVerdict& o) const {
    return advice == o.advice && gate == o.gate && rule == o.rule;
  }
  bool operator!=(const SchemeVerdict& o) const { return !(*this == o); }
};

// Applies the four rules in order; the first match wins, and the default
// verdict stands when none matches.
SchemeVerdict EvaluateSchemeRules(const SchemeStats& stats);

constexpr std::string_view ToString(HintGate gate) {
  switch (gate) {
    case HintGate::kDefault:
      return "default";
    case HintGate::kAdmit:
      return "admit";
    case HintGate::kSuppress:
      return "suppress";
  }
  return "?";
}

}  // namespace prestore

#endif  // SRC_MONITOR_SCHEME_H_
