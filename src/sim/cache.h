// Set-associative cache model with pluggable replacement policies.
//
// The cache stores timing/coherence metadata only — data always lives in the
// machine's backing host memory (functional-first simulation). Machine owns
// one whole cache per L1 and one for the LLC; one host thread drives them
// (scheduler.h), so the cache has no locking.
//
// SetBlock layout (DESIGN.md §14): every set is ONE contiguous,
// kSetBlockAlign-aligned block —
//
//   offset 0                    32           32+8w        SetBlockHeaderBytes
//   | SetScalars (32 B)         | tags[ways] | ages[ways] | pad | meta[ways]
//   | plru,stamp,rng,hint,valid | 8 B/way    | 1 B/way    |     | 32 B/way
//
// so one lookup touches one or two host lines (header + the hit way's meta)
// instead of striding across five parallel arrays. The layout is a pure
// host-side transform: replacement decisions, RNG draw order and every
// simulated outcome are bit-identical to the old parallel-array form
// (pinned by tests/cache_layout_equiv_test.cc against the pre-refactor
// reference implementation kept beside that test).
#ifndef SRC_SIM_CACHE_H_
#define SRC_SIM_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/sim/config.h"
#include "src/util/fastdiv.h"
#include "src/util/host_region.h"

namespace prestore {

inline constexpr uint8_t kNoOwner = 0xff;

struct CacheLineMeta {
  uint64_t line_addr = 0;  // byte address of the line start
  bool valid = false;
  bool dirty = false;
  // L1-only: the core may write without a coherence action (E/M vs S).
  bool exclusive = false;
  // LLC-only directory info for the private L1s above it.
  uint8_t owner = kNoOwner;  // core holding the line Modified in its L1
  uint64_t sharers = 0;      // bitmask of cores with an L1 copy
  // Replacement metadata. The kQuadAge age lives in the SetBlock header's
  // packed age array, not here, so victim scans stay within the header.
  uint64_t stamp = 0;  // kLru (last touch) / kFifo (fill order)
};

// The SetBlock budget maths in CacheConfig::Validate assumes this exact
// record size; a field added here must bump kSetBlockMetaBytes with it.
static_assert(sizeof(CacheLineMeta) == kSetBlockMetaBytes,
              "CacheLineMeta size drifted from kSetBlockMetaBytes");
static_assert(alignof(CacheLineMeta) <= kSetBlockAlign,
              "CacheLineMeta over-aligned for the SetBlock layout");

class SetAssocCache {
 public:
  struct Victim {
    bool valid = false;
    uint64_t line_addr = 0;
    bool dirty = false;
    uint8_t owner = kNoOwner;
    uint64_t sharers = 0;
  };

  // Validates `config` (throws std::invalid_argument, see
  // CacheConfig::Validate).
  SetAssocCache(const CacheConfig& config, uint64_t seed);

  // Set index of `line_addr`. Power-of-two set counts mask; irregular ones
  // use the precomputed magic-multiply reciprocal instead of a hardware
  // divide.
  uint64_t SetIndexOf(uint64_t line_addr) const {
    const uint64_t frame = line_addr >> line_shift_;
    return set_mask_ != 0 ? (frame & set_mask_) : set_mod_.Mod(frame);
  }

  // Probe without updating replacement state. Returns nullptr on miss.
  // (Defined inline below — FindWay dominates every simulated access.)
  //
  // DELIBERATE asymmetry with the const overload: a non-const Probe caches
  // the hit way in the set's way hint (a pure host-side accelerator — at
  // most one way can match a line, so the hint cannot change any simulated
  // outcome), while the const overload is Peek and never writes anything.
  CacheLineMeta* Probe(uint64_t line_addr) {
    unsigned char* blk = Block(SetIndexOf(line_addr));
    const uint32_t w = FindWayIn(blk, line_addr);
    if (w == kWayNone) {
      return nullptr;
    }
    ScalarsIn(blk).way_hint = static_cast<uint8_t>(w);
    return &MetaIn(blk)[w];
  }

  // Read-only probe: never updates the way hint (or any other state), so
  // observers — the rewrite-after-clean residency check, the demote leg's
  // L1 check — can't perturb hint state, and therefore host-side lookup
  // behaviour, by accident.
  const CacheLineMeta* Peek(uint64_t line_addr) const {
    const unsigned char* blk = Block(SetIndexOf(line_addr));
    const uint32_t w = FindWayIn(blk, line_addr);
    return w == kWayNone ? nullptr : &MetaIn(blk)[w];
  }
  const CacheLineMeta* Probe(uint64_t line_addr) const {
    return Peek(line_addr);
  }

  // Probe and, on a hit, mark the line most-recently-used. `times` > 1 is
  // the state that many back-to-back Touch calls leave, in O(1): an LRU
  // touch advances the set stamp by one each, and the other policies'
  // touches are idempotent.
  CacheLineMeta* Touch(uint64_t line_addr, uint64_t times = 1) {
    unsigned char* blk = Block(SetIndexOf(line_addr));
    const uint32_t w = FindWayIn(blk, line_addr);
    if (w == kWayNone) {
      return nullptr;
    }
    ScalarsIn(blk).way_hint = static_cast<uint8_t>(w);
    TouchWay(blk, w, times);
    return &MetaIn(blk)[w];
  }

  // Allocates a line (which must not be present). Returns the evicted victim,
  // if any. The returned reference `out_line` points at the new line's meta.
  // (Defined inline below — with PickVictim it runs on every simulated miss,
  // and on a miss-dominated stream the pair is the hottest code after
  // FindWay.)
  Victim Insert(uint64_t line_addr, bool dirty, CacheLineMeta** out_line) {
    unsigned char* blk = Block(SetIndexOf(line_addr));
    const uint32_t way = PickVictim(blk);
    CacheLineMeta& slot = MetaIn(blk)[way];

    Victim victim;
    if (slot.valid) {
      victim.valid = true;
      victim.line_addr = slot.line_addr;
      victim.dirty = slot.dirty;
      victim.owner = slot.owner;
      victim.sharers = slot.sharers;
    } else {
      ++ScalarsIn(blk).valid_count;
    }

    TagsIn(blk)[way] = line_addr;
    AgesIn(blk)[way] = 0;
    slot = CacheLineMeta{};
    slot.line_addr = line_addr;
    slot.valid = true;
    slot.dirty = dirty;
    switch (config_.policy) {
      case ReplacementPolicy::kLru:
      case ReplacementPolicy::kFifo:
        slot.stamp = ++ScalarsIn(blk).stamp;
        break;
      case ReplacementPolicy::kTreePlru:
        PlruTouch(blk, way);
        break;
      case ReplacementPolicy::kQuadAge:
        // Inserted slightly aged; re-referenced lines go back to 0.
        AgesIn(blk)[way] = 1;
        break;
      case ReplacementPolicy::kRandom:
        break;
    }
    ScalarsIn(blk).way_hint = static_cast<uint8_t>(way);
    if (out_line != nullptr) {
      *out_line = &slot;
    }
    return victim;
  }

  // Invalidates the line if present. Returns true if it was present (and
  // fills `was` with its pre-invalidation metadata when non-null).
  bool Remove(uint64_t line_addr, CacheLineMeta* was = nullptr);

  // Marks a present line as aged (demoted lines should leave soon but the
  // paper's ops keep data cached, so we only age, never invalidate).
  void AgeLine(uint64_t line_addr);

  const CacheConfig& config() const { return config_; }
  uint64_t num_sets() const { return num_sets_; }

  // Direct access to one set's way array (FlushAll, diagnostics).
  CacheLineMeta* SetData(uint64_t set) { return MetaOf(set); }
  const CacheLineMeta* SetData(uint64_t set) const { return MetaOf(set); }

  // Enumerate valid lines (diagnostics / tests), set-major way-minor.
  std::vector<uint64_t> ValidLines() const;

  // The set's last-hit way, 0xff when unset (tests / diagnostics only — the
  // hint is host-side state and not part of any simulated outcome).
  uint8_t DebugWayHint(uint64_t set) const { return ScalarsOf(set).way_hint; }
  // The set's kTreePlru bits and kLru/kFifo stamp counter (tests /
  // diagnostics only).
  uint64_t DebugPlruBits(uint64_t set) const {
    return ScalarsOf(set).plru_bits;
  }
  uint64_t DebugStamp(uint64_t set) const { return ScalarsOf(set).stamp; }
  // The packed kQuadAge age of (set, way) (tests / diagnostics only).
  uint8_t DebugAge(uint64_t set, uint32_t way) const {
    return AgesIn(Block(set))[way];
  }

 private:
  static constexpr uint32_t kWayNone = ~0u;
  static constexpr uint8_t kNoHint = 0xff;
  // Tag value for an invalid way. Line addresses are line-aligned, so the
  // all-ones pattern can never collide with a real line.
  static constexpr uint64_t kInvalidTag = ~0ULL;

  // Per-set scalar replacement state, packed into the first half host line
  // of the SetBlock so the tag scan and the hint/stamp/RNG updates share
  // one line fill.
  struct SetScalars {
    uint64_t plru_bits = 0;  // kTreePlru internal tree bits
    uint64_t stamp = 0;      // kLru/kFifo monotonic stamp counter
    uint64_t rng = 0;        // per-set xorshift64 victim-RNG state
    uint8_t way_hint = kNoHint;
    uint8_t valid_count = 0;
    uint8_t pad[6] = {};
  };
  static_assert(sizeof(SetScalars) == kSetBlockScalarBytes,
                "SetScalars size drifted from kSetBlockScalarBytes");

  // Block accessors. The region never moves after construction, and a
  // moved-from region hands its mapping over, so recomputing from data()
  // is always correct (and free: one load). The mapping is 2 MiB-aligned
  // and every block offset is a multiple of kSetBlockAlign, so per-set
  // pointers stay aligned.
  unsigned char* Block(uint64_t set) const {
    return blocks_.data() + color_ + set * block_bytes_;
  }
  static SetScalars& ScalarsIn(unsigned char* blk) {
    return *reinterpret_cast<SetScalars*>(blk);
  }
  static const SetScalars& ScalarsIn(const unsigned char* blk) {
    return *reinterpret_cast<const SetScalars*>(blk);
  }
  static uint64_t* TagsIn(unsigned char* blk) {
    return reinterpret_cast<uint64_t*>(blk + sizeof(SetScalars));
  }
  static const uint64_t* TagsIn(const unsigned char* blk) {
    return reinterpret_cast<const uint64_t*>(blk + sizeof(SetScalars));
  }
  // Packed kQuadAge ages, one byte per way, right after the tags.
  uint8_t* AgesIn(unsigned char* blk) const { return blk + ages_offset_; }
  const uint8_t* AgesIn(const unsigned char* blk) const {
    return blk + ages_offset_;
  }
  CacheLineMeta* MetaIn(unsigned char* blk) const {
    return reinterpret_cast<CacheLineMeta*>(blk + meta_offset_);
  }
  const CacheLineMeta* MetaIn(const unsigned char* blk) const {
    return reinterpret_cast<const CacheLineMeta*>(blk + meta_offset_);
  }
  SetScalars& ScalarsOf(uint64_t set) const { return ScalarsIn(Block(set)); }
  CacheLineMeta* MetaOf(uint64_t set) const { return MetaIn(Block(set)); }

  // The single lookup primitive Probe/Peek/Touch share: way holding
  // `line_addr` in the set whose block is `blk`, or kWayNone. Checks the
  // set's last-hit way first — at most one way can match a line address, so
  // the hint is a pure accelerator and cannot change any outcome — then
  // scans the packed tag array four ways at a time, accumulating compare
  // results into a mask so the loop body is branch-free until a match
  // exists (invalid ways hold kInvalidTag and never match).
  uint32_t FindWayIn(const unsigned char* blk, uint64_t line_addr) const {
    const uint64_t* tags = TagsIn(blk);
    const uint8_t hint = ScalarsIn(blk).way_hint;
    if (hint != kNoHint && tags[hint] == line_addr) {
      return hint;
    }
    const uint32_t ways = config_.ways;
    uint32_t w = 0;
    for (; w + 4 <= ways; w += 4) {
      const uint32_t mask = (tags[w] == line_addr ? 1u : 0u) |
                            (tags[w + 1] == line_addr ? 2u : 0u) |
                            (tags[w + 2] == line_addr ? 4u : 0u) |
                            (tags[w + 3] == line_addr ? 8u : 0u);
      if (mask != 0) {
        return w + static_cast<uint32_t>(__builtin_ctz(mask));
      }
    }
    for (; w < ways; ++w) {
      if (tags[w] == line_addr) {
        return w;
      }
    }
    return kWayNone;
  }

  // Replacement-state update for `times` hits (inline: runs on every cache
  // hit).
  void TouchWay(unsigned char* blk, uint32_t way, uint64_t times) {
    switch (config_.policy) {
      case ReplacementPolicy::kLru:
        MetaIn(blk)[way].stamp = ScalarsIn(blk).stamp += times;
        break;
      case ReplacementPolicy::kTreePlru:
        PlruTouch(blk, way);
        break;
      case ReplacementPolicy::kQuadAge:
        AgesIn(blk)[way] = 0;
        break;
      case ReplacementPolicy::kFifo:
      case ReplacementPolicy::kRandom:
        break;  // hits do not update replacement state
    }
  }

  // Victim choice for Insert. Inline for the same reason as Insert; the
  // policy algebra is documented per-case below.
  uint32_t PickVictim(unsigned char* blk) {
    CacheLineMeta* base = MetaIn(blk);
    // Invalid ways first. Warm sets are full, so the scan is skipped for
    // them (valid_count tracks exactly how many ways hold a line).
    if (ScalarsIn(blk).valid_count < config_.ways) {
      const uint64_t* tags = TagsIn(blk);
      for (uint32_t w = 0; w < config_.ways; ++w) {
        if (tags[w] == kInvalidTag) {
          return w;
        }
      }
    }
    switch (config_.policy) {
      case ReplacementPolicy::kLru:
      case ReplacementPolicy::kFifo: {
        uint32_t victim = 0;
        for (uint32_t w = 1; w < config_.ways; ++w) {
          if (base[w].stamp < base[victim].stamp) {
            victim = w;
          }
        }
        return victim;
      }
      case ReplacementPolicy::kTreePlru:
        return PlruVictim(blk);
      case ReplacementPolicy::kRandom:
        return static_cast<uint32_t>(
            way_mod_[config_.ways].Mod(NextRand(blk)));
      case ReplacementPolicy::kQuadAge: {
        // Intel-style pseudo-LRU: pick randomly among the oldest (age 3)
        // lines; if none has reached age 3, age every line until one does.
        // This is what makes evictions look "random" to software (§4.1).
        // The candidate buffer holds one slot per way; CacheConfig::
        // Validate caps ways at 64. The whole scan runs on the header's
        // packed age bytes — it never touches the meta records. The
        // repeated age-everything-and-rescan loop collapses to its closed
        // form: ages are in [0, 3] (inserts reset to 0, aging stops at 3),
        // so "increment all until some way reaches 3" adds exactly
        // 3 - max(ages) to every way and the candidate set becomes the
        // ways that held the maximum — identical final ages, identical
        // candidates, and the same single NextRand draw. The simple
        // fixed-trip loops also vectorize.
        uint8_t* ages = AgesIn(blk);
        uint8_t maxa = 0;
        for (uint32_t w = 0; w < config_.ways; ++w) {
          maxa = ages[w] > maxa ? ages[w] : maxa;
        }
        if (maxa < 3) {
          const uint8_t add = static_cast<uint8_t>(3 - maxa);
          for (uint32_t w = 0; w < config_.ways; ++w) {
            ages[w] = static_cast<uint8_t>(ages[w] + add);
          }
        }
        uint32_t candidates[64];
        uint32_t n = 0;
        for (uint32_t w = 0; w < config_.ways; ++w) {
          if (ages[w] >= 3) {
            candidates[n++] = w;
          }
        }
        // way_mod_[n].Mod(r) == r % n exactly (see fastdiv.h) but via a
        // magic multiply — the hardware divide was the longest dependency
        // in the whole victim pick.
        return candidates[way_mod_[n].Mod(NextRand(blk))];
      }
    }
    return 0;
  }

  // Tree-PLRU helpers (ways must be a power of two). A touch points every
  // internal node on the way's root path away from it; the masks hold those
  // node bits per way (see the constructor).
  void PlruTouch(unsigned char* blk, uint32_t way) {
    uint64_t& bits = ScalarsIn(blk).plru_bits;
    bits = (bits | plru_set_[way]) & plru_keep_[way];
  }
  uint32_t PlruVictim(const unsigned char* blk) const;

  uint64_t NextRand(unsigned char* blk) {
    // xorshift64: cheap per-set deterministic randomness for victim choice.
    uint64_t x = ScalarsIn(blk).rng;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ScalarsIn(blk).rng = x;
    return x;
  }

  CacheConfig config_;
  uint64_t num_sets_;
  // Fast indexing: line_size is a power of two (validated); sets usually are.
  uint32_t line_shift_;
  uint64_t set_mask_;  // num_sets_ - 1 when a power of two, else 0
  // Remainder by num_sets_ for the non-power-of-two fallback.
  ModReciprocal set_mod_;
  // way_mod_[n].Mod(r) == r % n for n in [1, ways]: exact magic-multiply
  // remainders for the victim-candidate draw (PickVictim). Index 0 unused.
  std::vector<ModReciprocal> way_mod_;
  // PlruTouch's masks: plru_set_[w] has the node bits a touch of way w sets
  // (the path turns right: "left is older"), plru_keep_[w] is zero exactly
  // at the bits it clears.
  uint64_t plru_set_[64] = {};
  uint64_t plru_keep_[64] = {};

  // SetBlock geometry (see config.h): ages_offset_ = scalars + tags,
  // meta_offset_ = SetBlockHeaderBytes, block_bytes_ = SetBlockBytes (the
  // latter two multiples of kSetBlockAlign).
  uint64_t ages_offset_ = 0;
  uint64_t meta_offset_ = 0;
  uint64_t block_bytes_ = 0;
  // Where the first block starts in its page: a multiple of kSetBlockAlign
  // drawn from the seed. An L1 is 24 KiB, a page multiple, so without it
  // set s of every core's L1 would sit at one page offset, and the
  // coherence code's back-to-back accesses to two cores' blocks for one
  // line would alias in the host's store-to-load disambiguation (DESIGN.md
  // §10). Host layout only.
  uint64_t color_ = 0;
  // num_sets_ * block_bytes_ bytes of set blocks, in set order. Mapped,
  // not heap-allocated: a machine's caches are freed and rebuilt with each
  // machine, and heap blocks of this size fragmented the heap by one LLC's
  // worth per machine built.
  HostRegion blocks_;
};

}  // namespace prestore

#endif  // SRC_SIM_CACHE_H_
