// Reference implementation of SetAssocCache: the pre-SetBlock parallel-array
// layout, preserved verbatim as an executable specification.
//
// src/sim/cache.h stores each set as one contiguous SetBlock; this class
// keeps the five parallel arrays (lines_, tags_, plru_bits_/set_stamp_/
// set_rng_, way_hint_, valid_count_) the engine used before the layout
// refactor. The per-line kQuadAge age, which used to be a CacheLineMeta
// field, lives in a per-line parallel array here with identical update
// rules. Behaviour — victim choices, RNG draw order, hints, stamps, ages —
// is required to be bit-identical between the two;
// tests/cache_layout_equiv_test drives both through randomized op
// interleavings and asserts exactly that.
//
// Not used by the simulator itself: the test oracle only.
#ifndef TESTS_REFERENCE_CACHE_H_
#define TESTS_REFERENCE_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/sim/cache.h"
#include "src/sim/config.h"
#include "src/util/rng.h"

namespace prestore {

class ReferenceSetAssocCache {
 public:
  using Victim = SetAssocCache::Victim;

  ReferenceSetAssocCache(const CacheConfig& config, uint64_t seed)
      : config_(config) {
    config_.Validate("cache");
    num_sets_ = config_.NumSets();
    line_shift_ = Log2(config_.line_size);
    set_mask_ = IsPow2(num_sets_) ? num_sets_ - 1 : 0;
    lines_.resize(num_sets_ * config_.ways);
    tags_.assign(num_sets_ * config_.ways, kInvalidTag);
    ages_.assign(num_sets_ * config_.ways, 0);
    plru_bits_.assign(num_sets_, 0);
    set_stamp_.assign(num_sets_, 0);
    set_rng_.resize(num_sets_);
    way_hint_.assign(num_sets_, kNoHint);
    valid_count_.assign(num_sets_, 0);
    // Same set-order SplitMix64 walk as the SetBlock cache.
    SplitMix64 sm(seed);
    for (uint64_t set = 0; set < num_sets_; ++set) {
      set_rng_[set] = sm.Next() | 1;
    }
  }

  uint64_t SetIndexOf(uint64_t line_addr) const {
    const uint64_t frame = line_addr >> line_shift_;
    return set_mask_ != 0 ? (frame & set_mask_) : frame % num_sets_;
  }

  CacheLineMeta* Probe(uint64_t line_addr) {
    const uint64_t set = SetIndexOf(line_addr);
    const uint32_t w = FindWay(set, line_addr);
    if (w == kWayNone) {
      return nullptr;
    }
    way_hint_[set] = static_cast<uint8_t>(w);
    return &SetBase(set)[w];
  }
  const CacheLineMeta* Peek(uint64_t line_addr) const {
    const uint64_t set = SetIndexOf(line_addr);
    const uint32_t w = FindWay(set, line_addr);
    return w == kWayNone ? nullptr : &SetBase(set)[w];
  }
  const CacheLineMeta* Probe(uint64_t line_addr) const {
    return Peek(line_addr);
  }

  CacheLineMeta* Touch(uint64_t line_addr) {
    const uint64_t set = SetIndexOf(line_addr);
    const uint32_t w = FindWay(set, line_addr);
    if (w == kWayNone) {
      return nullptr;
    }
    way_hint_[set] = static_cast<uint8_t>(w);
    TouchWay(set, w);
    return &SetBase(set)[w];
  }

  Victim Insert(uint64_t line_addr, bool dirty, CacheLineMeta** out_line) {
    const uint64_t set = SetIndexOf(line_addr);
    const uint32_t way = PickVictim(set);
    CacheLineMeta& slot = SetBase(set)[way];

    Victim victim;
    if (slot.valid) {
      victim.valid = true;
      victim.line_addr = slot.line_addr;
      victim.dirty = slot.dirty;
      victim.owner = slot.owner;
      victim.sharers = slot.sharers;
    } else {
      ++valid_count_[set];
    }

    tags_[set * config_.ways + way] = line_addr;
    ages_[set * config_.ways + way] = 0;
    slot = CacheLineMeta{};
    slot.line_addr = line_addr;
    slot.valid = true;
    slot.dirty = dirty;
    switch (config_.policy) {
      case ReplacementPolicy::kLru:
      case ReplacementPolicy::kFifo:
        slot.stamp = ++set_stamp_[set];
        break;
      case ReplacementPolicy::kTreePlru:
        PlruTouch(set, way);
        break;
      case ReplacementPolicy::kQuadAge:
        ages_[set * config_.ways + way] = 1;
        break;
      case ReplacementPolicy::kRandom:
        break;
    }
    way_hint_[set] = static_cast<uint8_t>(way);
    if (out_line != nullptr) {
      *out_line = &slot;
    }
    return victim;
  }

  bool Remove(uint64_t line_addr, CacheLineMeta* was = nullptr) {
    const uint64_t set = SetIndexOf(line_addr);
    const uint32_t w = FindWay(set, line_addr);
    if (w == kWayNone) {
      return false;
    }
    CacheLineMeta& line = SetBase(set)[w];
    if (was != nullptr) {
      *was = line;
    }
    line = CacheLineMeta{};
    tags_[set * config_.ways + w] = kInvalidTag;
    ages_[set * config_.ways + w] = 0;
    --valid_count_[set];
    return true;
  }

  void AgeLine(uint64_t line_addr) {
    const uint64_t set = SetIndexOf(line_addr);
    const uint32_t w = FindWay(set, line_addr);
    if (w == kWayNone) {
      return;
    }
    way_hint_[set] = static_cast<uint8_t>(w);  // as the old Probe-based path
    switch (config_.policy) {
      case ReplacementPolicy::kQuadAge:
        ages_[set * config_.ways + w] = 3;
        break;
      case ReplacementPolicy::kLru:
      case ReplacementPolicy::kFifo:
        SetBase(set)[w].stamp = 0;
        break;
      case ReplacementPolicy::kTreePlru:
      case ReplacementPolicy::kRandom:
        break;
    }
  }

  const CacheConfig& config() const { return config_; }
  uint64_t num_sets() const { return num_sets_; }

  CacheLineMeta* SetData(uint64_t set) { return SetBase(set); }
  const CacheLineMeta* SetData(uint64_t set) const { return SetBase(set); }

  std::vector<uint64_t> ValidLines() const {
    std::vector<uint64_t> out;
    out.reserve(lines_.size());
    for (const auto& line : lines_) {
      if (line.valid) {
        out.push_back(line.line_addr);
      }
    }
    return out;
  }

  uint8_t DebugWayHint(uint64_t set) const { return way_hint_[set]; }
  uint8_t DebugAge(uint64_t set, uint32_t way) const {
    return ages_[set * config_.ways + way];
  }

 private:
  static constexpr uint32_t kWayNone = ~0u;
  static constexpr uint8_t kNoHint = 0xff;
  static constexpr uint64_t kInvalidTag = ~0ULL;

  static constexpr bool IsPow2(uint64_t v) {
    return v != 0 && (v & (v - 1)) == 0;
  }
  static constexpr uint32_t Log2(uint64_t v) {
    uint32_t s = 0;
    while ((v >>= 1) != 0) {
      ++s;
    }
    return s;
  }

  CacheLineMeta* SetBase(uint64_t set) { return &lines_[set * config_.ways]; }
  const CacheLineMeta* SetBase(uint64_t set) const {
    return &lines_[set * config_.ways];
  }

  uint32_t FindWay(uint64_t set, uint64_t line_addr) const {
    const uint64_t* tags = &tags_[set * config_.ways];
    const uint8_t hint = way_hint_[set];
    if (hint != kNoHint && tags[hint] == line_addr) {
      return hint;
    }
    for (uint32_t w = 0; w < config_.ways; ++w) {
      if (tags[w] == line_addr) {
        return w;
      }
    }
    return kWayNone;
  }

  void TouchWay(uint64_t set, uint32_t way) {
    switch (config_.policy) {
      case ReplacementPolicy::kLru:
        SetBase(set)[way].stamp = ++set_stamp_[set];
        break;
      case ReplacementPolicy::kTreePlru:
        PlruTouch(set, way);
        break;
      case ReplacementPolicy::kQuadAge:
        ages_[set * config_.ways + way] = 0;
        break;
      case ReplacementPolicy::kFifo:
      case ReplacementPolicy::kRandom:
        break;
    }
  }

  void PlruTouch(uint64_t set, uint32_t way) {
    uint64_t bits = plru_bits_[set];
    uint32_t node = 1;
    uint32_t span = config_.ways;
    while (span > 1) {
      span /= 2;
      const bool right = (way % (span * 2)) >= span;
      if (right) {
        bits |= (1ULL << node);
      } else {
        bits &= ~(1ULL << node);
      }
      node = node * 2 + (right ? 1 : 0);
    }
    plru_bits_[set] = bits;
  }

  uint32_t PlruVictim(uint64_t set) const {
    const uint64_t bits = plru_bits_[set];
    uint32_t node = 1;
    uint32_t way = 0;
    uint32_t span = config_.ways;
    while (span > 1) {
      span /= 2;
      const bool go_right = (bits & (1ULL << node)) == 0;
      if (go_right) {
        way += span;
      }
      node = node * 2 + (go_right ? 1 : 0);
    }
    return way;
  }

  uint32_t PickVictim(uint64_t set) {
    CacheLineMeta* base = SetBase(set);
    if (valid_count_[set] < config_.ways) {
      const uint64_t* tags = &tags_[set * config_.ways];
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
        return PlruVictim(set);
      case ReplacementPolicy::kRandom:
        return static_cast<uint32_t>(NextRand(set) % config_.ways);
      case ReplacementPolicy::kQuadAge: {
        uint8_t* ages = &ages_[set * config_.ways];
        while (true) {
          uint32_t candidates[64];
          uint32_t n = 0;
          for (uint32_t w = 0; w < config_.ways; ++w) {
            if (ages[w] >= 3) {
              candidates[n++] = w;
            }
          }
          if (n > 0) {
            return candidates[NextRand(set) % n];
          }
          for (uint32_t w = 0; w < config_.ways; ++w) {
            ++ages[w];
          }
        }
      }
    }
    return 0;
  }

  uint64_t NextRand(uint64_t set) {
    uint64_t x = set_rng_[set];
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    set_rng_[set] = x;
    return x;
  }

  CacheConfig config_;
  uint64_t num_sets_;
  uint32_t line_shift_;
  uint64_t set_mask_;

  std::vector<CacheLineMeta> lines_;
  std::vector<uint64_t> tags_;
  std::vector<uint8_t> ages_;
  std::vector<uint64_t> plru_bits_;
  std::vector<uint64_t> set_stamp_;
  std::vector<uint64_t> set_rng_;
  std::vector<uint8_t> way_hint_;
  std::vector<uint8_t> valid_count_;
};

}  // namespace prestore

#endif  // TESTS_REFERENCE_CACHE_H_
