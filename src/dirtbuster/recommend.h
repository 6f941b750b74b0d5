// DirtBuster step 3 recommendation logic (§6.2.3 "Guiding developers").
#ifndef SRC_DIRTBUSTER_RECOMMEND_H_
#define SRC_DIRTBUSTER_RECOMMEND_H_

#include "src/core/prestore.h"
#include "src/dirtbuster/analyzer.h"

namespace prestore {

// A size class counts as "re-read / re-written soon" below these distances
// (in instructions).
inline constexpr uint64_t kAdviceRereadNear = 100000;
inline constexpr uint64_t kAdviceRewriteNear = 100000;
// A function counts as "writes before fence" when at least this fraction of
// its writes has a fence within PatternAnalyzer::kFenceNearInstructions.
inline constexpr double kAdviceFenceFraction = 0.30;
// A function counts as "sequential writer" above this fraction.
inline constexpr double kAdviceSeqFraction = 0.25;
// Size classes below this write share are ignored for the decision.
inline constexpr double kAdviceSignificantClassShare = 0.05;

// Per-size-class advice, following the paper's rules:
//   re-written soon            -> demote (publish early, keep for re-writes)
//   re-read soon               -> clean  (write back early, keep for re-reads)
//   neither                    -> skip   (non-temporal stores)
// A class that is re-written almost immediately and not fence-bound gets
// kNone (the Listing-3 trap).
Advice AdviseClass(const SizeClassReport& cls, bool fence_bound);

// Whole-function advice: kNone unless the function writes sequentially or
// writes before fences (§6.2.2); otherwise the dominant classes decide.
// A single significant re-read-soon class forces kClean over kSkip (the
// TensorFlow case in §7.2.1).
Advice AdviseFunction(const FunctionAnalysis& analysis);

// Whether an online advisor's verdict (the region monitor, src/monitor)
// agrees with an offline DirtBuster recommendation over the same data:
// exact match, or both in the write-back-early family {kClean, kSkip}. The
// online advisor can only gate or admit hints already in the program — it
// cannot restructure plain stores into non-temporal ones — so kClean is its
// actionable stand-in where the offline tool would say kSkip. The
// online-vs-offline cross-check tests assert this relation on dominant
// regions.
bool AdviceCompatible(Advice offline, Advice online);

}  // namespace prestore

#endif  // SRC_DIRTBUSTER_RECOMMEND_H_
