// PatternAnalyzer unit tests: synthetic record streams with known ground
// truth for sequentiality contexts, fence distances and re-use distances.
#include <gtest/gtest.h>

#include "src/dirtbuster/analyzer.h"

namespace prestore {
namespace {

constexpr uint32_t kFunc = 7;

TraceRecord Store(uint64_t addr, uint64_t icount, uint32_t size = 8,
                  uint32_t func = kFunc) {
  return TraceRecord{TraceKind::kStore, 0, size, addr, icount, func, 0};
}

TraceRecord Load(uint64_t addr, uint64_t icount) {
  return TraceRecord{TraceKind::kLoad, 0, 8, addr, icount, kFunc, 0};
}

TraceRecord Fence(uint64_t icount) {
  return TraceRecord{TraceKind::kFence, 0, 0, 0, icount, kFunc, 0};
}

PatternAnalyzer MakeAnalyzer() { return PatternAnalyzer(64, {kFunc}); }

TEST(Analyzer, PureSequentialWritesFormOneContext) {
  PatternAnalyzer a = MakeAnalyzer();
  for (uint64_t i = 0; i < 100; ++i) {
    a.Record(Store(1000 + i * 8, i));
  }
  const auto out = a.Finalize();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].func_id, kFunc);
  EXPECT_EQ(out[0].writes, 100u);
  EXPECT_GT(out[0].seq_write_fraction, 0.99);
  ASSERT_EQ(out[0].classes.size(), 1u);
  EXPECT_EQ(out[0].classes[0].representative_bytes, 800u);
}

TEST(Analyzer, RandomWritesAreNotSequential) {
  PatternAnalyzer a = MakeAnalyzer();
  uint64_t addr = 1;
  for (uint64_t i = 0; i < 200; ++i) {
    addr = addr * 2862933555777941757ULL + 3037000493ULL;
    a.Record(Store((addr % (1 << 24)) & ~7ULL, i));
  }
  const auto out = a.Finalize();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_LT(out[0].seq_write_fraction, 0.2);
}

TEST(Analyzer, InterleavedStreamsBothTracked) {
  // Two objects written alternately: the context tracker must follow both
  // (§6.2.2: "applications that interleave sequential writes to multiple
  // objects").
  PatternAnalyzer a = MakeAnalyzer();
  for (uint64_t i = 0; i < 100; ++i) {
    a.Record(Store(0x10000 + i * 8, 2 * i));
    a.Record(Store(0x90000 + i * 8, 2 * i + 1));
  }
  const auto out = a.Finalize();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GT(out[0].seq_write_fraction, 0.95);
}

TEST(Analyzer, StaleAdjacencyDoesNotCount) {
  // Address-adjacent writes separated by more than the staleness window are
  // NOT sequential for the cache (the IS bucket-scatter case).
  PatternAnalyzer a = MakeAnalyzer();
  const uint64_t apart = 5 * PatternAnalyzer::kSeqStalenessInstructions;
  for (uint64_t i = 0; i < 50; ++i) {
    a.Record(Store(0x1000 + i * 8, i * apart));  // 50K instructions apart
  }
  const auto out = a.Finalize();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_LT(out[0].seq_write_fraction, 0.1);
}

TEST(Analyzer, FenceDistanceTracked) {
  PatternAnalyzer a = MakeAnalyzer();
  a.Record(Store(0x1000, 100));
  a.Record(Store(0x1008, 110));
  a.Record(Fence(150));
  a.Record(Store(0x2000, 200));
  a.Record(Fence(10000000));  // far away: outside fence_near
  const auto out = a.Finalize();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].min_fence_distance, 40u);  // 150 - 110
  // Two of three writes had a near fence.
  EXPECT_NEAR(out[0].writes_before_fence_fraction, 2.0 / 3.0, 0.01);
}

TEST(Analyzer, ReReadDistancePerContext) {
  PatternAnalyzer a = MakeAnalyzer();
  for (uint64_t i = 0; i < 8; ++i) {
    a.Record(Store(0x4000 + i * 8, i));
  }
  a.Record(Load(0x4000, 100));   // distance 100 from the line's last write
  a.Record(Load(0x4008, 110));
  const auto out = a.Finalize();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].classes.size(), 1u);
  EXPECT_TRUE(out[0].classes[0].reread_finite);
  EXPECT_GT(out[0].classes[0].reread_distance, 90.0);
  EXPECT_LT(out[0].classes[0].reread_distance, 110.0);
  EXPECT_FALSE(out[0].classes[0].rewrite_finite);
}

TEST(Analyzer, ReWriteDistanceOnStreakBreak) {
  PatternAnalyzer a = MakeAnalyzer();
  // Write a small buffer, then rewrite it from the start much later.
  for (uint64_t i = 0; i < 8; ++i) {
    a.Record(Store(0x4000 + i * 8, i));
  }
  for (uint64_t i = 0; i < 8; ++i) {
    a.Record(Store(0x4000 + i * 8, 5000 + i));
  }
  const auto out = a.Finalize();
  ASSERT_EQ(out.size(), 1u);
  bool any_rewrite = false;
  for (const auto& c : out[0].classes) {
    any_rewrite = any_rewrite || c.rewrite_finite;
  }
  EXPECT_TRUE(any_rewrite);
}

TEST(Analyzer, UnselectedFunctionsIgnored) {
  PatternAnalyzer a = MakeAnalyzer();
  for (uint64_t i = 0; i < 50; ++i) {
    a.Record(Store(0x1000 + i * 8, i, 8, /*func=*/99));  // not selected
  }
  EXPECT_TRUE(a.Finalize().empty());
}

TEST(Analyzer, PerCoreIsolation) {
  // Two cores writing adjacent addresses must not merge into one context.
  PatternAnalyzer a = MakeAnalyzer();
  for (uint64_t i = 0; i < 40; ++i) {
    TraceRecord r = Store(0x1000 + i * 8, i);
    r.core_id = static_cast<uint8_t>(i % 2);
    a.Record(r);
  }
  const auto out = a.Finalize();
  ASSERT_EQ(out.size(), 1u);
  // Each core saw a strided (16B-gap) stream; with the 64B slack these
  // still chain, so both cores' contexts exist independently.
  EXPECT_EQ(out[0].writes, 40u);
}

}  // namespace
}  // namespace prestore
