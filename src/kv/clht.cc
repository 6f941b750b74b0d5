#include "src/kv/clht.h"

namespace prestore {

namespace {
uint64_t HashKey(uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  key *= 0xc4ceb9fe1a85ec53ULL;
  key ^= key >> 33;
  return key;
}
}  // namespace

ClhtMap::ClhtMap(Machine& machine, uint64_t num_buckets)
    : machine_(machine),
      buckets_(machine.Alloc(num_buckets * kBucketBytes, Region::kTarget,
                             kBucketBytes)),
      num_buckets_(num_buckets),
      put_func_{machine.registry().Intern("clht_put", "clht.c:321")},
      get_func_{machine.registry().Intern("clht_get", "clht.c:260")} {
  // Fresh machine memory reads as zero (demand-zero regions): all keys
  // empty, locks free.
}

SimAddr ClhtMap::BucketFor(uint64_t key) const {
  return buckets_ + (HashKey(key) % num_buckets_) * kBucketBytes;
}

void ClhtMap::Lock(Core& core, SimAddr bucket) {
  // The CAS has fence semantics: it publishes every private store issued
  // before it — including the freshly crafted value (§7.3.1).
  uint64_t expected = 0;
  while (!core.CasU64(bucket + kLockOff, expected, 1)) {
    expected = 0;
    core.SpinPause(4);
  }
}

void ClhtMap::Unlock(Core& core, SimAddr bucket) {
  core.AtomicStoreU64(bucket + kLockOff, 0);
}

void ClhtMap::Put(Core& core, uint64_t key, SimAddr value) {
  ScopedFunction f(core, put_func_);
  const SimAddr head = BucketFor(key);
  Lock(core, head);
  SimAddr bucket = head;
  SimAddr free_bucket = 0;
  uint32_t free_slot = 0;
  while (true) {
    for (uint32_t s = 0; s < kSlotsPerBucket; ++s) {
      const uint64_t k = core.LoadU64(bucket + kKeyOff + s * 8);
      if (k == key) {
        core.StoreU64(bucket + kValOff + s * 8, value);
        Unlock(core, head);
        return;
      }
      if (k == 0 && free_bucket == 0) {
        free_bucket = bucket;
        free_slot = s;
      }
    }
    const SimAddr next = core.LoadU64(bucket + kNextOff);
    if (next == 0) {
      break;
    }
    bucket = next;
  }
  if (free_bucket != 0) {
    // Value before key, so lock-free readers never see a key without its
    // value (CLHT's in-place insert protocol).
    core.StoreU64(free_bucket + kValOff + free_slot * 8, value);
    core.Fence();
    core.StoreU64(free_bucket + kKeyOff + free_slot * 8, key);
  } else {
    const SimAddr fresh =
        machine_.Alloc(kBucketBytes, Region::kTarget, kBucketBytes);
    ++overflow_buckets_;
    core.StoreU64(fresh + kKeyOff, key);
    core.StoreU64(fresh + kValOff, value);
    core.Fence();
    core.StoreU64(bucket + kNextOff, fresh);
  }
  Unlock(core, head);
}

SimAddr ClhtMap::Get(Core& core, uint64_t key) {
  ScopedFunction f(core, get_func_);
  SimAddr bucket = BucketFor(key);
  while (bucket != 0) {
    for (uint32_t s = 0; s < kSlotsPerBucket; ++s) {
      if (core.LoadU64(bucket + kKeyOff + s * 8) == key) {
        return core.LoadU64(bucket + kValOff + s * 8);
      }
    }
    bucket = core.LoadU64(bucket + kNextOff);
  }
  return 0;
}

}  // namespace prestore
