// Common key-value store interface + value crafting (paper §7.2.3, §7.3.1).
#ifndef SRC_KV_KVSTORE_H_
#define SRC_KV_KVSTORE_H_

#include <algorithm>
#include <bit>
#include <cstdint>

#include "src/sim/core.h"
#include "src/sim/machine.h"

namespace prestore {

// How PUT operations treat the crafted value — the paper's three variants.
enum class KvWritePolicy : uint8_t {
  kBaseline,  // plain stores (Listing 6 without the prestore line)
  kClean,     // clean pre-store after crafting (Listing 6)
  kSkip,      // non-temporal stores inside craftValue
};

class KvStore {
 public:
  virtual ~KvStore() = default;

  // Associates `key` with the value at `value` (size is fixed per run and
  // known to the workload). Keys must be non-zero.
  virtual void Put(Core& core, uint64_t key, SimAddr value) = 0;

  // Returns the value address, or 0 when absent.
  virtual SimAddr Get(Core& core, uint64_t key) = 0;

  virtual const char* Name() const = 0;
};

namespace kv_internal {

// Values move as word runs (Core::StoreU64s and friends) through a stack
// buffer of kChunkWords words: 1 KiB, whole lines on every machine, so an
// aligned value's chunk seams fall on line boundaries. A value of `size`
// bytes is ceil(size / 8) words; fn(byte_offset, words) runs per chunk.
inline constexpr uint32_t kChunkWords = 128;

template <typename Fn>
void ForEachChunk(uint32_t size, Fn&& fn) {
  const uint32_t words = (size + 7) / 8;
  for (uint32_t w = 0; w < words; w += kChunkWords) {
    fn(w * 8, std::min(kChunkWords, words - w));
  }
}

}  // namespace kv_internal

// Writes `size` bytes of key-derived payload at `dst`, sequentially —
// the craftValue function of Listing 6. With kSkip the stores are
// non-temporal; with kClean a clean pre-store covers the value afterwards.
inline void CraftValue(Core& core, FuncToken func, SimAddr dst, uint32_t size,
                       uint64_t key, KvWritePolicy policy) {
  ScopedFunction f(core, func);
  uint64_t word = key * 0x9e3779b97f4a7c15ULL + 1;
  uint64_t words[kv_internal::kChunkWords];
  kv_internal::ForEachChunk(size, [&](uint32_t off, uint32_t n) {
    for (uint32_t i = 0; i < n; ++i) {
      words[i] = word;
      word += key;
    }
    if (policy == KvWritePolicy::kSkip) {
      core.StoreNtU64s(dst + off, words, n);
    } else {
      core.StoreU64s(dst + off, words, n);
    }
  });
  if (policy == KvWritePolicy::kClean) {
    core.Prestore(dst, size, PrestoreOp::kClean);
  }
}

// Consumes a value: reads its words in order under `func`, then spends
// sum % 3 + 1 ALU cycles on them — what a GET hit does with the value in
// the YCSB driver and the serving load generators.
inline void ReadValue(Core& core, FuncToken func, SimAddr value,
                      uint32_t size) {
  ScopedFunction f(core, func);
  uint64_t sum = 0;
  uint64_t words[kv_internal::kChunkWords];
  kv_internal::ForEachChunk(size, [&](uint32_t off, uint32_t n) {
    core.LoadU64s(value + off, words, n);
    for (uint32_t i = 0; i < n; ++i) {
      sum += words[i];
    }
  });
  core.Execute(sum % 3 + 1);
}

// Checks a crafted value (functional tests): returns true when the payload
// at `addr` matches what CraftValue(key) writes. A mismatch ends the check
// at the end of its chunk.
inline bool CheckValue(Core& core, SimAddr addr, uint32_t size, uint64_t key) {
  uint64_t word = key * 0x9e3779b97f4a7c15ULL + 1;
  uint64_t words[kv_internal::kChunkWords];
  bool match = true;
  kv_internal::ForEachChunk(size, [&](uint32_t off, uint32_t n) {
    if (!match) {
      return;
    }
    core.LoadU64s(addr + off, words, n);
    for (uint32_t i = 0; i < n; ++i) {
      match = match && words[i] == word;
      word += key;
    }
  });
  return match;
}

// Per-thread ring of value slots: models an allocator that recycles value
// buffers (keys always point at the most recently crafted slot).
//
// `align` overrides the base alignment (0 = one buffer-sized power of two up
// to a page). The serving subsystem aligns each shard's arena to the
// governor's region size so that per-shard telemetry maps one-to-one onto
// governor regions.
//
// `phase` offsets the slots within the (aligned) allocation. Aligned bases
// are congruent modulo the target's DIMM-interleave period, so identical
// arenas would map equal slot indexes to the same DIMM — and sequential
// slot cursors advancing at similar rates then hammer one DIMM in lockstep
// while its siblings idle. A caller with several arenas passes a distinct
// interleave-page multiple per arena to spread the cursors across DIMMs.
// The allocation is padded to a whole number of alignment units, so every
// aligned unit the slots touch still belongs to this arena alone (span()).
class ValueArena {
 public:
  ValueArena(Machine& machine, uint32_t slots, uint32_t value_size,
             uint64_t align = 0, uint64_t phase = 0)
      : span_(static_cast<uint64_t>(slots) * value_size + phase),
        base_(machine.Alloc(
                  align != 0 ? (span_ + align - 1) / align * align : span_,
                  Region::kTarget,
                  align != 0
                      ? align
                      : std::min<uint64_t>(4096, std::bit_ceil(value_size))) +
              phase),
        slots_(slots),
        value_size_(value_size) {}

  SimAddr NextSlot() {
    const SimAddr a = base_ + static_cast<uint64_t>(next_) * value_size_;
    next_ = (next_ + 1) % slots_;
    return a;
  }

  uint32_t value_size() const { return value_size_; }
  SimAddr base() const { return base_; }
  uint64_t bytes() const {
    return static_cast<uint64_t>(slots_) * value_size_;
  }
  // The slot span including the leading phase offset: [base() - phase,
  // base() + bytes()). Telemetry that maps aligned regions to arenas must
  // use this (the slots alone start `phase` bytes into the first region;
  // the allocation's trailing padding never receives hints).
  SimAddr span_base() const { return base_ + bytes() - span_; }
  uint64_t span_bytes() const { return span_; }

 private:
  uint64_t span_;
  SimAddr base_;
  uint32_t slots_;
  uint32_t value_size_;
  uint32_t next_ = 0;
};

}  // namespace prestore

#endif  // SRC_KV_KVSTORE_H_
