#include "src/sim/cache.h"

#include <new>

#include "src/util/rng.h"

namespace prestore {

namespace {

constexpr bool IsPow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

constexpr uint32_t Log2(uint64_t v) {
  uint32_t s = 0;
  while ((v >>= 1) != 0) {
    ++s;
  }
  return s;
}

}  // namespace

SetAssocCache::SetAssocCache(const CacheConfig& config, uint64_t seed)
    : config_(config) {
  config_.Validate("cache");
  num_sets_ = config_.NumSets();  // after Validate: ways may be 0 before it
  line_shift_ = Log2(config_.line_size);
  set_mask_ = IsPow2(num_sets_) ? num_sets_ - 1 : 0;
  set_mod_ = ModReciprocal(num_sets_);
  // One contiguous SetBlock per set (layout constants validated against
  // kSetBlockMaxBytes above). The region reads as zero, which already
  // initializes the packed age bytes.
  way_mod_.reserve(config_.ways + 1);
  for (uint64_t n = 0; n <= config_.ways; ++n) {
    way_mod_.emplace_back(n == 0 ? 1 : n);
  }
  // Classic binary-tree pseudo-LRU: node 1 is the root, leaves are ways,
  // and a touch flips each internal node on the way's path to point away
  // from it.
  for (uint32_t way = 0; way < config_.ways; ++way) {
    uint64_t clear = 0;
    uint32_t node = 1;
    uint32_t span = config_.ways;
    while (span > 1) {
      span /= 2;
      const bool right = (way % (span * 2)) >= span;
      (right ? plru_set_[way] : clear) |= 1ULL << node;
      node = node * 2 + (right ? 1 : 0);
    }
    plru_keep_[way] = ~clear;
  }
  ages_offset_ = kSetBlockScalarBytes + kSetBlockTagBytes * config_.ways;
  meta_offset_ = SetBlockHeaderBytes(config_.ways);
  block_bytes_ = SetBlockBytes(config_.ways);
  // A HostRegion is advised huge pages before anything touches it, so a
  // large cache's blocks fault in as 2 MiB pages (random set indexing on
  // 4 KiB pages pays a page walk per simulated access).
  color_ = seed % 64 * kSetBlockAlign;
  blocks_ = HostRegion(color_ + num_sets_ * block_bytes_);
  for (uint64_t set = 0; set < num_sets_; ++set) {
    unsigned char* blk = Block(set);
    new (blk) SetScalars{};
    uint64_t* tags = TagsIn(blk);
    CacheLineMeta* meta = MetaIn(blk);
    for (uint32_t w = 0; w < config_.ways; ++w) {
      new (&tags[w]) uint64_t(kInvalidTag);
      new (&meta[w]) CacheLineMeta{};
    }
  }
  // Per-set RNG state comes from one SplitMix64 stream walked in set order.
  SplitMix64 sm(seed);
  for (uint64_t set = 0; set < num_sets_; ++set) {
    ScalarsOf(set).rng = sm.Next() | 1;
  }
}

uint32_t SetAssocCache::PlruVictim(const unsigned char* blk) const {
  const uint64_t bits = ScalarsIn(blk).plru_bits;
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

bool SetAssocCache::Remove(uint64_t line_addr, CacheLineMeta* was) {
  unsigned char* blk = Block(SetIndexOf(line_addr));
  const uint32_t w = FindWayIn(blk, line_addr);
  if (w == kWayNone) {
    return false;
  }
  CacheLineMeta& line = MetaIn(blk)[w];
  if (was != nullptr) {
    *was = line;
  }
  line = CacheLineMeta{};
  TagsIn(blk)[w] = kInvalidTag;
  AgesIn(blk)[w] = 0;
  --ScalarsIn(blk).valid_count;
  return true;
}

void SetAssocCache::AgeLine(uint64_t line_addr) {
  unsigned char* blk = Block(SetIndexOf(line_addr));
  const uint32_t w = FindWayIn(blk, line_addr);
  if (w == kWayNone) {
    return;
  }
  // The pre-SetBlock implementation looked the line up with Probe, which
  // caches the hit way; keep that hint behaviour identical.
  ScalarsIn(blk).way_hint = static_cast<uint8_t>(w);
  switch (config_.policy) {
    case ReplacementPolicy::kQuadAge:
      AgesIn(blk)[w] = 3;
      break;
    case ReplacementPolicy::kLru:
    case ReplacementPolicy::kFifo:
      MetaIn(blk)[w].stamp = 0;
      break;
    case ReplacementPolicy::kTreePlru:
    case ReplacementPolicy::kRandom:
      break;
  }
}

std::vector<uint64_t> SetAssocCache::ValidLines() const {
  std::vector<uint64_t> out;
  out.reserve(num_sets_ * config_.ways);
  for (uint64_t set = 0; set < num_sets_; ++set) {
    const CacheLineMeta* meta = MetaOf(set);
    for (uint32_t w = 0; w < config_.ways; ++w) {
      if (meta[w].valid) {
        out.push_back(meta[w].line_addr);
      }
    }
  }
  return out;
}

}  // namespace prestore
