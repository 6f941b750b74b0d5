#include "src/dirtbuster/recommend.h"

namespace prestore {

Advice AdviseClass(const SizeClassReport& cls, bool fence_bound) {
  const bool rewritten_soon =
      cls.rewrite_finite && cls.rewrite_distance < kAdviceRewriteNear;
  const bool reread_soon =
      cls.reread_finite && cls.reread_distance < kAdviceRereadNear;
  if (rewritten_soon) {
    // Cleaning or skipping re-written data causes useless memory traffic
    // (§5, Listing 3). Demoting is still useful when a fence follows.
    return fence_bound ? Advice::kDemote : Advice::kNone;
  }
  if (reread_soon) {
    return Advice::kClean;
  }
  return Advice::kSkip;
}

Advice AdviseFunction(const FunctionAnalysis& analysis) {
  const bool sequential = analysis.seq_write_fraction >= kAdviceSeqFraction;
  const bool fence_bound =
      analysis.writes_before_fence_fraction >= kAdviceFenceFraction;
  if (!sequential && !fence_bound) {
    // §6.1: pre-stores only help sequential writes or writes before fences.
    return Advice::kNone;
  }

  double rewrite_share = 0.0;
  bool any_reread = false;
  bool any_skip = false;
  for (const SizeClassReport& cls : analysis.classes) {
    if (cls.write_share < kAdviceSignificantClassShare) {
      continue;
    }
    switch (AdviseClass(cls, fence_bound)) {
      case Advice::kNone:
      case Advice::kDemote:
        rewrite_share += cls.write_share;
        break;
      case Advice::kClean:
        any_reread = true;
        break;
      case Advice::kSkip:
        any_skip = true;
        break;
    }
  }

  if (rewrite_share >= 0.5) {
    // Mostly re-written data: only demotion (before a fence) is safe.
    return fence_bound ? Advice::kDemote : Advice::kNone;
  }
  if (any_reread) {
    // Some of the written data is re-read from the cache soon: skipping
    // would push those reads to memory, so clean (§7.2.1).
    return Advice::kClean;
  }
  if (any_skip) {
    return Advice::kSkip;
  }
  return fence_bound ? Advice::kDemote : Advice::kNone;
}

bool AdviceCompatible(Advice offline, Advice online) {
  if (offline == online) {
    return true;
  }
  const auto write_back_early = [](Advice a) {
    return a == Advice::kClean || a == Advice::kSkip;
  };
  return write_back_early(offline) && write_back_early(online);
}

}  // namespace prestore
