// Unit tables for DirtBuster's recommendation rules (§6.2.3).
#include <gtest/gtest.h>

#include "src/dirtbuster/recommend.h"

namespace prestore {
namespace {

SizeClassReport Cls(double share, bool reread, double reread_d, bool rewrite,
                    double rewrite_d) {
  SizeClassReport c;
  c.representative_bytes = 4096;
  c.write_share = share;
  c.context_count = 10;
  c.reread_finite = reread;
  c.reread_distance = reread_d;
  c.rewrite_finite = rewrite;
  c.rewrite_distance = rewrite_d;
  return c;
}

TEST(AdviseClass, NeverReusedGetsSkip) {
  EXPECT_EQ(AdviseClass(Cls(1.0, false, 0, false, 0), false),
            Advice::kSkip);
}

TEST(AdviseClass, ReReadSoonGetsClean) {
  EXPECT_EQ(AdviseClass(Cls(1.0, true, 10, false, 0), false),
            Advice::kClean);
}

TEST(AdviseClass, ReReadFarGetsSkip) {
  // "Re-read" at a distance beyond the threshold is as good as never.
  EXPECT_EQ(AdviseClass(Cls(1.0, true, 1e9, false, 0), false),
            Advice::kSkip);
}

TEST(AdviseClass, RewrittenSoonNoFenceGetsNone) {
  // The Listing-3 trap.
  EXPECT_EQ(AdviseClass(Cls(1.0, false, 0, true, 100), false),
            Advice::kNone);
}

TEST(AdviseClass, RewrittenSoonWithFenceGetsDemote) {
  // The X9 case: reused buffers published behind a CAS.
  EXPECT_EQ(AdviseClass(Cls(1.0, false, 0, true, 100), true),
            Advice::kDemote);
}

TEST(AdviseClass, RewriteBeatsReRead) {
  // Data both re-read and re-written soon: cleaning would still cause
  // useless writebacks before each re-write.
  EXPECT_EQ(AdviseClass(Cls(1.0, true, 10, true, 100), false),
            Advice::kNone);
}

FunctionAnalysis Func(double seq_fraction, double fence_fraction,
                      std::vector<SizeClassReport> classes) {
  FunctionAnalysis a;
  a.writes = 100000;
  a.seq_write_fraction = seq_fraction;
  a.writes_before_fence_fraction = fence_fraction;
  a.classes = std::move(classes);
  return a;
}

TEST(AdviseFunction, NotSequentialNotFenceBoundGetsNone) {
  // §6.1: pre-stores only help sequential writes or writes before fences —
  // the IS `rank` case.
  const auto analysis = Func(0.05, 0.0, {Cls(1.0, false, 0, false, 0)});
  EXPECT_EQ(AdviseFunction(analysis), Advice::kNone);
}

TEST(AdviseFunction, SequentialNeverReusedGetsSkip) {
  const auto analysis = Func(0.95, 0.0, {Cls(1.0, false, 0, false, 0)});
  EXPECT_EQ(AdviseFunction(analysis), Advice::kSkip);
}

TEST(AdviseFunction, MixedClassesWithOneReReadGetClean) {
  // The TensorFlow case (§7.2.1): a large never-reused class plus a small
  // immediately-re-read class -> clean, NOT skip.
  const auto analysis = Func(0.9, 0.0,
                             {Cls(0.35, false, 0, false, 0),
                              Cls(0.60, true, 2, false, 0)});
  EXPECT_EQ(AdviseFunction(analysis), Advice::kClean);
}

TEST(AdviseFunction, InsignificantClassIgnored) {
  // A tiny re-read class below the significance threshold must not force
  // clean over skip.
  const auto analysis = Func(0.9, 0.0,
                             {Cls(0.98, false, 0, false, 0),
                              Cls(0.02, true, 2, false, 0)});
  EXPECT_EQ(AdviseFunction(analysis), Advice::kSkip);
}

TEST(AdviseFunction, MostlyRewrittenFenceBoundGetsDemote) {
  const auto analysis = Func(0.9, 0.8, {Cls(0.9, false, 0, true, 50)});
  EXPECT_EQ(AdviseFunction(analysis), Advice::kDemote);
}

TEST(AdviseFunction, MostlyRewrittenNoFenceGetsNone) {
  const auto analysis = Func(0.9, 0.0, {Cls(0.9, false, 0, true, 50)});
  EXPECT_EQ(AdviseFunction(analysis), Advice::kNone);
}

TEST(AdviseFunction, FenceBoundNotSequentialStillEligible) {
  // Writes before a fence qualify even without sequentiality (§6.1 lists
  // the two patterns as alternatives).
  const auto analysis = Func(0.05, 0.9, {Cls(1.0, false, 0, true, 100)});
  EXPECT_EQ(AdviseFunction(analysis), Advice::kDemote);
}

}  // namespace
}  // namespace prestore
