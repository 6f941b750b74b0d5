#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <new>
#include <stdexcept>
#include <vector>

#include "src/sim/array.h"
#include "src/sim/harness.h"
#include "src/sim/machine.h"
#include "src/util/rng.h"

namespace prestore {
namespace {

TEST(MachineAlloc, AlignedAndDisjoint) {
  Machine m(MachineA(2));
  const SimAddr a = m.Alloc(100);
  const SimAddr b = m.Alloc(100);
  EXPECT_EQ(a % 64, 0u);
  EXPECT_EQ(b % 64, 0u);
  EXPECT_GE(b, a + 100);
  const SimAddr c = m.Alloc(10, Region::kTarget, 4096);
  EXPECT_EQ(c % 4096, 0u);
}

TEST(MachineAlloc, RegionsSeparate) {
  Machine m(MachineA(2));
  const SimAddr d = m.Alloc(64, Region::kDram);
  const SimAddr t = m.Alloc(64, Region::kTarget);
  EXPECT_LT(d, kTargetBase);
  EXPECT_GE(t, kTargetBase);
}

TEST(MachineAlloc, RejectsNonPowerOfTwoAlign) {
  // A round-up mask built from 48 yields starts that are not multiples of
  // 48 (64, 112, ...); the allocator refuses such an alignment.
  Machine m(MachineA(1));
  EXPECT_THROW(m.Alloc(64, Region::kTarget, 48), std::invalid_argument);
  EXPECT_THROW(m.Alloc(64, Region::kDram, 3), std::invalid_argument);
  EXPECT_EQ(m.Alloc(64, Region::kTarget, 128) % 128, 0u);
}

TEST(MachineAllocDeathTest, SizeThatWouldWrapIsExhaustion) {
  // start + bytes wraps to a small value for a near-2^64 request; the
  // check must compare against the space left instead.
  Machine m(MachineA(1));
  m.Alloc(4096);
  m.Alloc(4096, Region::kDram);
  EXPECT_DEATH(m.Alloc(~uint64_t{0} - 64), "target region exhausted");
  EXPECT_DEATH(m.Alloc(~uint64_t{0} - 64, Region::kDram),
               "dram region exhausted");
}

TEST(MachineMemory, FreshRegionsReadZeroAtBothEnds) {
  const MachineConfig cfg = MachineA(1);
  Machine m(cfg);
  EXPECT_EQ(*m.HostPtr(kDramBase), 0);
  EXPECT_EQ(*m.HostPtr(kDramBase + cfg.dram_region_bytes - 1), 0);
  EXPECT_EQ(*m.HostPtr(kTargetBase), 0);
  EXPECT_EQ(*m.HostPtr(kTargetBase + cfg.target_region_bytes - 1), 0);
}

TEST(MachineMemory, OneStoreMakesAtMostOneHugePageResident) {
  // The regions are demand-zero: constructing the machine touches none of
  // the target's 512 MB, and one 8-byte store faults in at most the one
  // huge page holding it. A zero-fill or pre-touch makes all of it
  // resident.
  const MachineConfig cfg = MachineA(1);
  Machine m(cfg);
  m.core(0).StoreU64(m.Alloc(64), 1);
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident(
      (cfg.target_region_bytes + page - 1) / page);
  ASSERT_EQ(mincore(m.HostPtr(kTargetBase), cfg.target_region_bytes,
                    resident.data()),
            0);
  size_t resident_pages = 0;
  for (unsigned char r : resident) {
    resident_pages += r & 1;
  }
  EXPECT_GE(resident_pages, 1u);
  EXPECT_LE(resident_pages * page, size_t{2} << 20);
}

TEST(MachineMemory, FailedRegionMappingThrowsBadAlloc) {
  // 2^62 bytes exceeds any user address space, so the mapping fails.
  MachineConfig cfg = MachineA(1);
  cfg.target_region_bytes = uint64_t{1} << 62;
  EXPECT_THROW(Machine m(cfg), std::bad_alloc);
}

TEST(CoreData, StoreLoadRoundTrip) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(4096);
  core.StoreU64(a, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(core.LoadU64(a), 0xdeadbeefcafef00dULL);
  core.StoreU32(a + 8, 0x12345678u);
  EXPECT_EQ(core.LoadU32(a + 8), 0x12345678u);
  core.StoreF64(a + 16, 3.25);
  EXPECT_DOUBLE_EQ(core.LoadF64(a + 16), 3.25);
}

TEST(CoreData, MemCopyRoundTrip) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(4096);
  std::vector<char> src(1000);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<char>(i * 13);
  }
  core.MemCopyToSim(a, src.data(), src.size());
  std::vector<char> dst(1000, 0);
  core.MemCopyFromSim(dst.data(), a, dst.size());
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), src.size()), 0);
}

TEST(CoreData, MemSetFillsBytes) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(256);
  core.MemSet(a, 0xab, 256);
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(*m.HostPtr(a + i), 0xab);
  }
}

TEST(CoreData, SimToSimCopy) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(512);
  const SimAddr b = m.Alloc(512);
  core.MemSet(a, 0x5a, 512);
  core.MemCopySimToSim(b, a, 512);
  EXPECT_EQ(std::memcmp(m.HostPtr(a), m.HostPtr(b), 512), 0);
}

TEST(CoreTiming, TimeAdvancesMonotonically) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(1 << 20);
  uint64_t prev = core.now();
  for (int i = 0; i < 1000; ++i) {
    core.StoreU64(a + i * 64, i);
    EXPECT_GE(core.now(), prev);
    prev = core.now();
  }
}

TEST(CoreTiming, L1HitFasterThanMiss) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(1 << 20);
  // Cold miss.
  const uint64_t t0 = core.now();
  core.LoadU64(a);
  const uint64_t miss_cost = core.now() - t0;
  // Hit.
  const uint64_t t1 = core.now();
  core.LoadU64(a);
  const uint64_t hit_cost = core.now() - t1;
  EXPECT_LT(hit_cost, miss_cost);
  EXPECT_EQ(hit_cost, m.config().l1.hit_latency);
}

TEST(CoreTiming, SequentialStreamsFasterThanRandom) {
  // The hardware-prefetch stand-in: streaming loads must be cheaper per
  // line than random loads over the same footprint.
  Machine m(MachineA(2));
  const uint64_t n = 1 << 14;  // lines; 1MB footprint each
  SimArray<uint64_t> seq(m, n * 8);
  SimArray<uint64_t> rnd(m, n * 8);

  const uint64_t seq_cost = RunOnCore(m, [&](Core& core) {
    for (uint64_t i = 0; i < n; ++i) {
      seq.Get(core, i * 8);
    }
  });
  Xoshiro256 rng(5);
  const uint64_t rnd_cost = RunOnCore(m, [&](Core& core) {
    for (uint64_t i = 0; i < n; ++i) {
      rnd.Get(core, rng.Below(n) * 8);
    }
  });
  EXPECT_LT(seq_cost * 3 / 2, rnd_cost);
}

TEST(CoreTiming, ExecuteAdvancesClockAndIcount) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const uint64_t t = core.now();
  const uint64_t ic = core.icount();
  core.Execute(1000);
  EXPECT_EQ(core.now(), t + 1000);
  EXPECT_EQ(core.icount(), ic + 1000);
}

TEST(CoreAtomics, CasSucceedsAndFails) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(64);
  core.StoreU64(a, 10);
  uint64_t expected = 10;
  EXPECT_TRUE(core.CasU64(a, expected, 20));
  EXPECT_EQ(core.LoadU64(a), 20u);
  expected = 10;
  EXPECT_FALSE(core.CasU64(a, expected, 30));
  EXPECT_EQ(expected, 20u);  // CAS loads the current value on failure
}

TEST(CoreAtomics, FetchAdd) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(64);
  core.StoreU64(a, 5);
  EXPECT_EQ(core.FetchAddU64(a, 3), 5u);
  EXPECT_EQ(core.AtomicLoadU64(a), 8u);
}

TEST(CoreAtomics, AtomicStoreVisible) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(64);
  core.AtomicStoreU64(a, 77);
  EXPECT_EQ(core.AtomicLoadU64(a), 77u);
}

TEST(CoreNt, NonTemporalStoreIsFunctional) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(4096);
  std::vector<char> src(1024);
  for (size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<char>(i);
  }
  core.StoreNt(a, src.data(), src.size());
  std::vector<char> dst(1024);
  core.MemCopyFromSim(dst.data(), a, dst.size());
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), src.size()), 0);
}

TEST(CoreNt, NtStoreEvictsFromCache) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(4096);
  core.StoreU64(a, 1);  // line cached
  core.Fence();
  uint64_t v = 42;
  core.StoreNt(a, &v, 8);
  // A subsequent load must miss (line was invalidated): it costs more than
  // an L1 hit.
  const uint64_t t = core.now();
  EXPECT_EQ(core.LoadU64(a), 42u);
  EXPECT_GT(core.now() - t, m.config().l1.hit_latency);
}

TEST(CorePrestore, FunctionalNoOp) {
  // Pre-stores never change data, only timing.
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(4096);
  core.MemSet(a, 0x11, 4096);
  core.Prestore(a, 4096, PrestoreOp::kClean);
  core.Prestore(a, 4096, PrestoreOp::kDemote);
  core.Fence();
  for (int i = 0; i < 4096; i += 64) {
    EXPECT_EQ(core.LoadU64(a + i) & 0xff, 0x11u);
  }
}

TEST(CorePrestore, CleanKeepsDataCached) {
  // §2: "cleaning the data propagates the modifications to memory but does
  // not invalidate the cache". A re-read after clean must be an L1 hit.
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(4096);
  core.StoreU64(a, 9);
  core.Prestore(a, 8, PrestoreOp::kClean);
  const uint64_t t = core.now();
  EXPECT_EQ(core.LoadU64(a), 9u);
  EXPECT_EQ(core.now() - t, m.config().l1.hit_latency);
}

TEST(CorePrestore, CleanWritesToDevice) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(4096, Region::kTarget);
  core.StoreU64(a, 1);
  const uint64_t received_before = m.target().Stats().bytes_received;
  core.Prestore(a, 8, PrestoreOp::kClean);
  EXPECT_GT(m.target().Stats().bytes_received, received_before);
}

TEST(CorePrestore, CleanOfCleanLineIsCheap) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(4096);
  core.StoreU64(a, 1);
  core.Prestore(a, 8, PrestoreOp::kClean);
  const uint64_t writes_before = m.target().Stats().writes;
  core.Prestore(a, 8, PrestoreOp::kClean);  // already clean
  EXPECT_EQ(m.target().Stats().writes, writes_before);
}

TEST(Fence, WaitsForCleanWriteback) {
  Machine m(MachineA(2));
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(4096);
  core.StoreU64(a, 1);
  core.Prestore(a, 8, PrestoreOp::kClean);
  const uint64_t before = core.now();
  core.Fence();
  // The fence must wait for the asynchronous writeback (device latency).
  EXPECT_GT(core.now(), before + 5);
}

TEST(Harness, RunParallelAlignsAndMeasures) {
  Machine m(MachineA(4));
  SimArray<uint64_t> arr(m, 1 << 12);
  const uint64_t cycles = RunParallel(m, 4, [&](Core& core, uint32_t tid) {
    for (uint64_t i = tid; i < arr.size(); i += 4) {
      arr.Set(core, i, tid);
    }
  });
  EXPECT_GT(cycles, 0u);
  // All elements written.
  Core& core = m.core(0);
  for (uint64_t i = 0; i < arr.size(); ++i) {
    EXPECT_LT(arr.Get(core, i), 4u);
  }
}

TEST(Stats, CountersTrackOps) {
  Machine m(MachineA(2));
  m.ResetStats();
  Core& core = m.core(0);
  const SimAddr a = m.Alloc(4096);
  core.StoreU64(a, 1);
  core.LoadU64(a);
  core.Fence();
  core.Prestore(a, 8, PrestoreOp::kClean);
  const CoreStats& s = core.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_GE(s.loads, 1u);
  EXPECT_EQ(s.fences, 1u);
  EXPECT_EQ(s.prestores_clean, 1u);
}

}  // namespace
}  // namespace prestore
