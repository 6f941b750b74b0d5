// CLHT-like cache-line hash table (David, Guerraoui, Trigonakis — ASPLOS'15),
// one of the two KV-store indexes the paper evaluates (§7.2.3).
//
// Each bucket is exactly one cache line: a lock word, three key slots, three
// value slots, and a chain pointer. PUTs lock the bucket with a CAS (fence
// semantics — the §4.2 interaction); GETs are lock-free.
#ifndef SRC_KV_CLHT_H_
#define SRC_KV_CLHT_H_

#include "src/kv/kvstore.h"

namespace prestore {

class ClhtMap : public KvStore {
 public:
  static constexpr uint32_t kSlotsPerBucket = 3;

  ClhtMap(Machine& machine, uint64_t num_buckets);

  void Put(Core& core, uint64_t key, SimAddr value) override;
  SimAddr Get(Core& core, uint64_t key) override;
  const char* Name() const override { return "clht"; }

  // Number of chained overflow buckets allocated so far (diagnostics).
  uint64_t OverflowBuckets() const { return overflow_buckets_; }

 private:
  // Bucket layout (one 64B line; on 128B-line machines the bucket still
  // occupies a single line):
  //   +0  lock
  //   +8  keys[3]
  //   +32 values[3]
  //   +56 next bucket address (0 = none)
  static constexpr uint64_t kLockOff = 0;
  static constexpr uint64_t kKeyOff = 8;
  static constexpr uint64_t kValOff = 32;
  static constexpr uint64_t kNextOff = 56;
  static constexpr uint64_t kBucketBytes = 64;

  SimAddr BucketFor(uint64_t key) const;
  void Lock(Core& core, SimAddr bucket);
  void Unlock(Core& core, SimAddr bucket);

  Machine& machine_;
  SimAddr buckets_;
  uint64_t num_buckets_;
  uint64_t overflow_buckets_ = 0;
  FuncToken put_func_;
  FuncToken get_func_;
};

}  // namespace prestore

#endif  // SRC_KV_CLHT_H_
