#include "src/monitor/scheme.h"

namespace prestore {

SchemeVerdict EvaluateSchemeRules(const SchemeStats& s) {
  // Back off first: a region whose admitted cleans keep getting re-dirtied
  // while resident is the Listing-3 misuse, whatever else it looks like.
  if (s.cleans >= kSchemeMinIntervalCleans &&
      s.rewrite_rate >= kSchemeBackoffRewriteRate) {
    return {Advice::kNone, HintGate::kSuppress, kRuleRewrittenWhileResident};
  }
  if (s.cleans >= kSchemeMinIntervalCleans &&
      s.useless_rate >= kSchemeBackoffUselessRate) {
    return {Advice::kNone, HintGate::kSuppress, kRuleUselessDominated};
  }
  const bool writer = s.samples >= kSchemeMinIntervalSamples &&
                      s.write_fraction >= kSchemeMinWriteFraction;
  // Fence-bound writers want their publication latency overlapped: demote.
  // Checked before the clean rule so a fence-bound sequential writer gets
  // the ordering-aware advice (matches AdviseFunction's precedence).
  if (writer && s.fence_rate >= kSchemeFenceRate) {
    return {Advice::kDemote, HintGate::kAdmit, kRuleWritesBeforeFence};
  }
  if (writer && s.seq_fraction >= kSchemeSeqFraction &&
      s.noread_intervals >= kSchemeNoReadIntervals) {
    return {Advice::kClean, HintGate::kAdmit, kRuleSeqWritesNoReread};
  }
  return SchemeVerdict{};
}

}  // namespace prestore
