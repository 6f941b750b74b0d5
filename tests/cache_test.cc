#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "src/sim/cache.h"

namespace prestore {
namespace {

CacheConfig SmallCache(ReplacementPolicy policy, uint32_t ways = 4,
                       uint64_t sets = 8) {
  return CacheConfig{.size_bytes = sets * ways * 64,
                     .ways = ways,
                     .line_size = 64,
                     .hit_latency = 4,
                     .policy = policy};
}

TEST(Cache, MissThenHit) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kLru), 1);
  EXPECT_EQ(c.Probe(0), nullptr);
  CacheLineMeta* meta = nullptr;
  auto victim = c.Insert(0, false, &meta);
  EXPECT_FALSE(victim.valid);
  ASSERT_NE(meta, nullptr);
  EXPECT_NE(c.Probe(0), nullptr);
  EXPECT_NE(c.Touch(0), nullptr);
}

TEST(Cache, SetIndexing) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kLru), 1);
  // 8 sets, 64B lines: addresses 64*8 apart map to the same set.
  EXPECT_EQ(c.SetIndexOf(0), c.SetIndexOf(64 * 8));
  EXPECT_NE(c.SetIndexOf(0), c.SetIndexOf(64));
}

TEST(Cache, LruEvictsLeastRecentlyUsed) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kLru), 1);
  const uint64_t stride = 64 * 8;  // same set
  for (uint64_t i = 0; i < 4; ++i) {
    c.Insert(i * stride, false, nullptr);
  }
  // Touch 0 so it is MRU; inserting a 5th line must evict line 1*stride.
  c.Touch(0);
  CacheLineMeta* meta = nullptr;
  auto victim = c.Insert(4 * stride, false, &meta);
  ASSERT_TRUE(victim.valid);
  EXPECT_EQ(victim.line_addr, stride);
}

TEST(Cache, FifoIgnoresTouches) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kFifo), 1);
  const uint64_t stride = 64 * 8;
  for (uint64_t i = 0; i < 4; ++i) {
    c.Insert(i * stride, false, nullptr);
  }
  c.Touch(0);  // would rescue line 0 under LRU
  auto victim = c.Insert(4 * stride, false, nullptr);
  ASSERT_TRUE(victim.valid);
  EXPECT_EQ(victim.line_addr, 0u);
}

TEST(Cache, VictimCarriesDirtyBit) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kLru, 1, 1), 1);
  CacheLineMeta* meta = nullptr;
  c.Insert(0, true, &meta);
  auto victim = c.Insert(64, false, nullptr);
  ASSERT_TRUE(victim.valid);
  EXPECT_TRUE(victim.dirty);
}

TEST(Cache, RemoveInvalidates) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kLru), 1);
  c.Insert(128, true, nullptr);
  CacheLineMeta was;
  EXPECT_TRUE(c.Remove(128, &was));
  EXPECT_TRUE(was.dirty);
  EXPECT_EQ(c.Probe(128), nullptr);
  EXPECT_FALSE(c.Remove(128));
}

TEST(Cache, InvalidWaysFillFirst) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kRandom), 1);
  const uint64_t stride = 64 * 8;
  for (uint64_t i = 0; i < 4; ++i) {
    auto victim = c.Insert(i * stride, false, nullptr);
    EXPECT_FALSE(victim.valid) << "way " << i;
  }
}

TEST(Cache, TreePlruProtectsRecentlyTouched) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kTreePlru), 1);
  const uint64_t stride = 64 * 8;
  for (uint64_t i = 0; i < 4; ++i) {
    c.Insert(i * stride, false, nullptr);
  }
  c.Touch(3 * stride);  // most recently used; must survive next eviction
  auto victim = c.Insert(4 * stride, false, nullptr);
  ASSERT_TRUE(victim.valid);
  EXPECT_NE(victim.line_addr, 3 * stride);
}

TEST(Cache, QuadAgeHitResetsAge) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kQuadAge), 1);
  const uint64_t stride = 64 * 8;
  for (uint64_t i = 0; i < 4; ++i) {
    c.Insert(i * stride, false, nullptr);
  }
  // Touch line 2 repeatedly: it should never be the next victim.
  c.Touch(2 * stride);
  auto victim = c.Insert(4 * stride, false, nullptr);
  ASSERT_TRUE(victim.valid);
  EXPECT_NE(victim.line_addr, 2 * stride);
}

TEST(Cache, QuadAgeEvictionsLookScattered) {
  // Fill many sets by writing a long array twice its capacity: under
  // quad-age the victims of the second pass must NOT be exactly the
  // sequential first-pass order (the §4.1 "random eviction" behaviour).
  SetAssocCache c(SmallCache(ReplacementPolicy::kQuadAge, 16, 64), 7);
  std::vector<uint64_t> victims;
  const uint64_t lines = 64 * 16 * 3;  // 3x capacity
  for (uint64_t i = 0; i < lines; ++i) {
    auto victim = c.Insert(i * 64, false, nullptr);
    if (victim.valid) {
      victims.push_back(victim.line_addr);
    }
  }
  ASSERT_GT(victims.size(), 100u);
  size_t sequential_pairs = 0;
  for (size_t i = 1; i < victims.size(); ++i) {
    if (victims[i] == victims[i - 1] + 64) {
      ++sequential_pairs;
    }
  }
  // Strictly sequential eviction would make every pair adjacent.
  EXPECT_LT(sequential_pairs, victims.size() / 2);
}

TEST(Cache, LruSequentialFillEvictsSequentially) {
  // Contrast with the test above: strict LRU on a sequential overwrite
  // evicts in close-to-sequential order within each set cycle.
  SetAssocCache c(SmallCache(ReplacementPolicy::kLru, 4, 16), 7);
  const uint64_t capacity_lines = 4 * 16;
  for (uint64_t i = 0; i < capacity_lines; ++i) {
    c.Insert(i * 64, false, nullptr);
  }
  std::vector<uint64_t> victims;
  for (uint64_t i = capacity_lines; i < 2 * capacity_lines; ++i) {
    auto victim = c.Insert(i * 64, false, nullptr);
    ASSERT_TRUE(victim.valid);
    victims.push_back(victim.line_addr);
  }
  for (size_t i = 0; i < victims.size(); ++i) {
    EXPECT_EQ(victims[i], i * 64);
  }
}

TEST(Cache, AgeLineMakesLinePreferredVictim) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kQuadAge), 1);
  const uint64_t stride = 64 * 8;
  for (uint64_t i = 0; i < 4; ++i) {
    c.Insert(i * stride, false, nullptr);
  }
  c.AgeLine(1 * stride);
  auto victim = c.Insert(4 * stride, false, nullptr);
  ASSERT_TRUE(victim.valid);
  EXPECT_EQ(victim.line_addr, 1 * stride);
}

TEST(Cache, ValidLinesEnumeration) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kLru), 1);
  std::set<uint64_t> inserted;
  for (uint64_t i = 0; i < 10; ++i) {
    c.Insert(i * 64, false, nullptr);
    inserted.insert(i * 64);
  }
  auto lines = c.ValidLines();
  EXPECT_EQ(lines.size(), 10u);
  for (uint64_t l : lines) {
    EXPECT_TRUE(inserted.count(l));
  }
}

class ReplacementSweep : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(ReplacementSweep, NeverEvictsOnHit) {
  SetAssocCache c(SmallCache(GetParam()), 1);
  c.Insert(0, false, nullptr);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(c.Touch(0), nullptr);
  }
  EXPECT_NE(c.Probe(0), nullptr);
}

TEST_P(ReplacementSweep, CapacityNeverExceeded) {
  SetAssocCache c(SmallCache(GetParam(), 4, 8), 1);
  for (uint64_t i = 0; i < 1000; ++i) {
    c.Insert(i * 64, i % 2 == 0, nullptr);
  }
  EXPECT_LE(c.ValidLines().size(), 4u * 8u);
}

TEST_P(ReplacementSweep, VictimIsFromSameSet) {
  SetAssocCache c(SmallCache(GetParam(), 2, 8), 1);
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t addr = i * 64;
    auto victim = c.Insert(addr, false, nullptr);
    if (victim.valid) {
      EXPECT_EQ(c.SetIndexOf(victim.line_addr), c.SetIndexOf(addr));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplacementSweep,
                         ::testing::Values(ReplacementPolicy::kLru,
                                           ReplacementPolicy::kTreePlru,
                                           ReplacementPolicy::kRandom,
                                           ReplacementPolicy::kFifo,
                                           ReplacementPolicy::kQuadAge));

// The way hint is a pure accelerator: after the hinted line is removed and
// the set refilled, lookups must still resolve correctly (a stale hint may
// only cost a scan, never return the wrong line).
TEST(Cache, WayHintSafeAfterRemove) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kLru, 4, 1), 1);
  for (uint64_t i = 0; i < 4; ++i) {
    c.Insert(i * 64, false, nullptr);
  }
  ASSERT_NE(c.Touch(2 * 64), nullptr);  // hint now points at way of line 2
  ASSERT_TRUE(c.Remove(2 * 64));
  EXPECT_EQ(c.Probe(2 * 64), nullptr);  // stale hint must not fake a hit
  // Refill the vacated way with a different line; the old hint slot now
  // holds the new line and must resolve to it, while the others still hit.
  c.Insert(9 * 64, false, nullptr);
  EXPECT_NE(c.Probe(9 * 64), nullptr);
  EXPECT_NE(c.Probe(0), nullptr);
  EXPECT_NE(c.Probe(64), nullptr);
  EXPECT_NE(c.Probe(3 * 64), nullptr);
}

}  // namespace
}  // namespace prestore
