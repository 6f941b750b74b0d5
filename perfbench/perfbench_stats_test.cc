// Tests of the benchmark's summary statistics and span arithmetic. The
// expected quartiles are what Python's statistics.quantiles(v, n=4) returns.
#include "perfbench/perfbench_stats.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace perfbench {
namespace {

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(Quartiles, MatchPythonExclusiveMethod) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const Quartiles a =
      QuartilesOf({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(a.q1, 2.75);
  EXPECT_DOUBLE_EQ(a.q2, 5.5);
  EXPECT_DOUBLE_EQ(a.q3, 8.25);
  EXPECT_DOUBLE_EQ(a.RelativeSpread(), (8.25 - 2.75) / 5.5);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const Quartiles b = QuartilesOf({2, 1});
  EXPECT_DOUBLE_EQ(b.q1, 0.75);
  EXPECT_DOUBLE_EQ(b.q2, 1.5);
  EXPECT_DOUBLE_EQ(b.q3, 2.25);
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const Quartiles c = QuartilesOf({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(c.q1, 1.5);
  EXPECT_DOUBLE_EQ(c.q2, 4.0);
  EXPECT_DOUBLE_EQ(c.q3, 12.0);
  const Quartiles d = QuartilesOf({5});
  EXPECT_DOUBLE_EQ(d.q1, 5.0);
  EXPECT_DOUBLE_EQ(d.q3, 5.0);
  EXPECT_THROW(QuartilesOf({}), std::invalid_argument);
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) {
    v.push_back(i);
  }
  return v;
}

TEST(HighestSupportedPercentile, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(HighestSupportedPercentile(OneTo(19)).has_value());
  const auto p50 = HighestSupportedPercentile(OneTo(20));
  ASSERT_TRUE(p50.has_value());
  EXPECT_DOUBLE_EQ(p50->percentile, 50.0);
  EXPECT_DOUBLE_EQ(p50->value, 10.0);
  EXPECT_EQ(p50->beyond, 10u);

  const auto p90 = HighestSupportedPercentile(OneTo(100));
  ASSERT_TRUE(p90.has_value());
  EXPECT_DOUBLE_EQ(p90->percentile, 90.0);
  EXPECT_DOUBLE_EQ(p90->value, 90.0);
  EXPECT_EQ(p90->beyond, 10u);
  // 999 samples leave only 9 beyond p99.
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(OneTo(999))->percentile, 90.0);

  const auto p99 = HighestSupportedPercentile(OneTo(1000));
  EXPECT_DOUBLE_EQ(p99->percentile, 99.0);
  EXPECT_DOUBLE_EQ(p99->value, 990.0);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(OneTo(10000))->percentile,
                   99.9);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(OneTo(100000))->percentile,
                   99.99);
}

// Keeps a span open long enough that its duration is not zero.
void Pause() { std::this_thread::sleep_for(std::chrono::microseconds(200)); }

TEST(Tracer, SelfTimeIsDurationMinusDirectChildren) {
  Tracer t(true, "w");
  {
    SpanScope root(t, "root");
    {
      SpanScope a(t, "a");
      {
        SpanScope grandchild(t, "grandchild");
        Pause();
      }
      Pause();
    }
    Pause();
    {
      SpanScope b(t, "b");
      Pause();
    }
  }
  const std::vector<Tracer::Span>& s = t.spans();  // root, a, grandchild, b
  ASSERT_EQ(s.size(), 4u);
  auto dur = [&](int i) { return s[i].end_ns - s[i].start_ns; };
  // The grandchild is a's child, so only a and b count against root.
  EXPECT_DOUBLE_EQ(t.SelfSeconds(0), (dur(0) - dur(1) - dur(3)) * 1e-9);
  EXPECT_DOUBLE_EQ(t.SelfSeconds(1), (dur(1) - dur(2)) * 1e-9);
  EXPECT_DOUBLE_EQ(t.SelfSeconds(2), dur(2) * 1e-9);  // leaf: whole span
  EXPECT_GE(t.SelfSeconds(0), 200e-6);  // root's own pause
  EXPECT_GE(t.SelfSeconds(1), 200e-6);
}

TEST(Tracer, ScopesNestAndDisabledRecordsNothing) {
  Tracer t(true, "w");
  {
    SpanScope outer(t, "outer", "cfg");
    { SpanScope inner(t, "inner", "cfg"); }
    { SpanScope inner(t, "inner2"); }
  }
  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].parent, -1);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[2].parent, 0);
  EXPECT_EQ(t.spans()[1].config, "cfg");
  for (const Tracer::Span& s : t.spans()) {
    EXPECT_GE(s.end_ns, s.start_ns);
  }

  Tracer off(false, "w");
  { SpanScope s(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
  EXPECT_DOUBLE_EQ(off.OverheadSeconds(), 0.0);
}

}  // namespace
}  // namespace perfbench
