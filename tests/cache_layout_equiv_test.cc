// SetBlock layout equivalence: the contiguous-per-set cache (src/sim/cache.h)
// against the preserved pre-refactor parallel-array implementation
// (tests/reference_cache.h), driven through randomized
// Insert/Remove/AgeLine/Touch/Probe interleavings. The layout is a pure
// host-side transform, so EVERYTHING observable must match op for op:
// hit/miss outcomes, victim choices (i.e. RNG draw order), per-set way
// hints, and ValidLines(). Runs each policy twice: once with a
// power-of-two set count and once with a non-power-of-two one, so the
// magic-multiply SetIndexOf fallback is exercised against the hardware
// divide it replaced; and the preset L1 and LLC geometries the simulator
// actually runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/cache.h"
#include "src/sim/config.h"
#include "tests/reference_cache.h"

namespace prestore {
namespace {

CacheConfig SmallCache(ReplacementPolicy policy, uint32_t ways,
                       uint64_t sets) {
  CacheConfig cfg;
  cfg.ways = ways;
  cfg.line_size = 64;
  cfg.size_bytes = sets * ways * 64;
  cfg.policy = policy;
  return cfg;
}

// Drives the reference cache and a SetBlock cache through the same
// randomized op stream, asserting identical observable behaviour
// throughout. The full-state comparison runs every 256 ops, or every
// eighth of the cache's line capacity for the big preset LLC.
void RunEquivalence(const CacheConfig& cfg, uint64_t seed, int ops) {
  ReferenceSetAssocCache ref(cfg, seed);
  SetAssocCache whole(cfg, seed);
  ASSERT_EQ(ref.num_sets(), whole.num_sets());

  const uint64_t sets = cfg.NumSets();
  const auto check_state = [&](int at_op) {
    // Way hints are host-side state, but the layouts must keep them in
    // lockstep too: a diverging hint means the lookup paths diverged.
    for (uint64_t g = 0; g < sets; ++g) {
      ASSERT_EQ(ref.DebugWayHint(g), whole.DebugWayHint(g))
          << "hint diverged for set " << g << " at op " << at_op;
      // Replacement ages moved from CacheLineMeta into the packed SetBlock
      // header; compare them through the debug accessors.
      for (uint32_t w = 0; w < cfg.ways; ++w) {
        ASSERT_EQ(ref.DebugAge(g, w), whole.DebugAge(g, w))
            << "age diverged for set " << g << " way " << w << " at op "
            << at_op;
      }
    }
    ASSERT_EQ(ref.ValidLines(), whole.ValidLines())
        << "resident lines diverged at op " << at_op;
  };

  // Address stream: ~3x the cache's line capacity so warm sets keep
  // evicting, with enough reuse that Touch hits are common.
  const uint64_t span_lines = 3 * sets * cfg.ways + 7;
  const int check_every =
      std::max<int>(256, static_cast<int>(sets * cfg.ways / 8));
  uint64_t x = seed | 1;
  for (int i = 0; i < ops; ++i) {
    x ^= x << 7;
    x ^= x >> 9;  // xorshift: deterministic address stream
    const uint64_t addr = (x % span_lines) * cfg.line_size;
    switch (i % 16) {
      case 13: {  // Remove
        CacheLineMeta was_ref, was_whole;
        const bool rr = ref.Remove(addr, &was_ref);
        const bool rw = whole.Remove(addr, &was_whole);
        ASSERT_EQ(rr, rw) << "remove presence diverged at op " << i;
        if (rr) {
          EXPECT_EQ(was_ref.dirty, was_whole.dirty);
          EXPECT_EQ(was_ref.stamp, was_whole.stamp);
        }
        break;
      }
      case 14:  // AgeLine (hits update the hint via the internal Probe)
        ref.AgeLine(addr);
        whole.AgeLine(addr);
        break;
      case 15: {  // Peek must agree on residency (and, per check_state,
                  // never perturb the hints)
        const CacheLineMeta* pr = ref.Peek(addr);
        const CacheLineMeta* pw = whole.Peek(addr);
        ASSERT_EQ(pr == nullptr, pw == nullptr)
            << "peek diverged at op " << i;
        if (pr != nullptr) {
          EXPECT_EQ(pr->stamp, pw->stamp);
        }
        break;
      }
      default: {  // Touch, falling back to Insert on a miss
        CacheLineMeta* hit_ref = ref.Touch(addr);
        CacheLineMeta* hit_whole = whole.Touch(addr);
        ASSERT_EQ(hit_ref == nullptr, hit_whole == nullptr)
            << "hit/miss diverged at op " << i;
        if (hit_ref != nullptr) {
          EXPECT_EQ(hit_ref->stamp, hit_whole->stamp);
          hit_ref->dirty = hit_whole->dirty = true;
          break;
        }
        const bool dirty = (i & 1) != 0;
        const auto vr = ref.Insert(addr, dirty, nullptr);
        const auto vw = whole.Insert(addr, dirty, nullptr);
        ASSERT_EQ(vr.valid, vw.valid) << "victim presence diverged at op "
                                      << i;
        if (vr.valid) {
          ASSERT_EQ(vr.line_addr, vw.line_addr)
              << "victim choice diverged at op " << i;
          EXPECT_EQ(vr.dirty, vw.dirty);
        }
        break;
      }
    }
    if (i % check_every == check_every - 1) {
      check_state(i);
    }
  }
  check_state(ops);
}

class LayoutEquivalence
    : public ::testing::TestWithParam<ReplacementPolicy> {};

TEST_P(LayoutEquivalence, MatchesReference) {
  RunEquivalence(SmallCache(GetParam(), 8, 32), /*seed=*/0x5e7b10cULL,
                 /*ops=*/6000);
}

TEST_P(LayoutEquivalence, MatchesReferenceOnNonPow2Sets) {
  // 48 sets: SetIndexOf takes the reciprocal-remainder fallback; the
  // reference uses the hardware divide it replaced.
  RunEquivalence(SmallCache(GetParam(), 4, 48), /*seed=*/0xa11ce,
                 /*ops=*/6000);
}

// The geometries every simulated machine runs: Machine A's L1 (64 sets,
// 8-way tree-PLRU) and LLC (2048 sets, 16-way quad-age). The LLC stream
// is long enough to fill it about three times over.
TEST(LayoutEquivalencePresets, MatchesReferenceOnPresetL1) {
  RunEquivalence(MachineA().l1, /*seed=*/42, /*ops=*/60000);
}

TEST(LayoutEquivalencePresets, MatchesReferenceOnPresetLlc) {
  RunEquivalence(MachineA().llc, /*seed=*/42, /*ops=*/120000);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, LayoutEquivalence,
                         ::testing::Values(ReplacementPolicy::kLru,
                                           ReplacementPolicy::kTreePlru,
                                           ReplacementPolicy::kRandom,
                                           ReplacementPolicy::kFifo,
                                           ReplacementPolicy::kQuadAge));

// The deliberate Probe asymmetry (cache.h): non-const Probe caches the hit
// way in the set's hint; Peek (and the const Probe overload, which is Peek)
// never writes anything.
TEST(CacheLayout, PeekNeverUpdatesWayHint) {
  SetAssocCache c(SmallCache(ReplacementPolicy::kLru, 4, 4), 1);
  const uint64_t set_stride = 4 * 64;  // next line in the same set
  c.Insert(0 * set_stride, false, nullptr);      // way 0
  c.Insert(1 * set_stride, false, nullptr);      // way 1
  ASSERT_NE(c.Touch(0), nullptr);                // hint -> way 0
  ASSERT_EQ(c.DebugWayHint(0), 0);

  ASSERT_NE(c.Peek(set_stride), nullptr);        // read-only: hint untouched
  EXPECT_EQ(c.DebugWayHint(0), 0);
  const SetAssocCache& cc = c;
  ASSERT_NE(cc.Probe(set_stride), nullptr);      // const Probe == Peek
  EXPECT_EQ(c.DebugWayHint(0), 0);

  ASSERT_NE(c.Probe(set_stride), nullptr);       // mutable Probe caches
  EXPECT_EQ(c.DebugWayHint(0), 1);
}

}  // namespace
}  // namespace prestore
