// Machine preset invariants: the configurations every experiment stands on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "src/sim/cache.h"
#include "src/sim/config.h"
#include "src/sim/device.h"
#include "src/sim/machine.h"

namespace prestore {
namespace {

TEST(Presets, MachineAMatchesPaperTable1) {
  const MachineConfig m = MachineA();
  EXPECT_EQ(m.line_size, 64u);                          // Intel CPU
  EXPECT_EQ(m.target.internal_block_size, 256u);        // Optane PMEM
  EXPECT_EQ(m.target.kind, DeviceKind::kPmem);
  EXPECT_EQ(m.drain, StoreDrainPolicy::kEagerTso);      // strong x86 model
  EXPECT_EQ(m.llc.policy, ReplacementPolicy::kQuadAge); // pseudo-LRU (§4.1)
}

TEST(Presets, MachineBMatchesPaperSection3) {
  const MachineConfig fast = MachineBFast();
  const MachineConfig slow = MachineBSlow();
  EXPECT_EQ(fast.line_size, 128u);  // ThunderX ARM CPU
  EXPECT_EQ(fast.drain, StoreDrainPolicy::kLazyWeak);
  EXPECT_EQ(fast.target.kind, DeviceKind::kFarMemory);
  // Fast: 60 cycles; slow: 200 cycles (§3).
  EXPECT_EQ(fast.target.read_latency, 60u);
  EXPECT_EQ(slow.target.read_latency, 200u);
  // Bandwidth ordering: the fast FPGA moves bytes cheaper.
  EXPECT_LT(fast.target.cycles_per_byte, slow.target.cycles_per_byte);
  // Directory on the device, cost scales with its latency (§4.2).
  EXPECT_EQ(fast.target.directory_latency, 60u);
  EXPECT_EQ(slow.target.directory_latency, 200u);
  // In-order cores drain the store buffer serially at fences.
  EXPECT_EQ(fast.fence_drain_parallelism, 1u);
}

TEST(Presets, CxlSsdDoublesTheBlockSize) {
  const MachineConfig m = MachineACxlSsd();
  EXPECT_EQ(m.target.internal_block_size, 512u);
  EXPECT_EQ(m.target.internal_block_size / m.line_size, 8u);  // 8x ceiling
  EXPECT_GT(m.target.read_latency, MachineA().target.read_latency);
}

TEST(Presets, CachesConsistent) {
  for (const MachineConfig& m :
       {MachineA(), MachineBFast(), MachineBSlow(), MachineACxlSsd()}) {
    EXPECT_EQ(m.l1.line_size, m.line_size) << m.name;
    EXPECT_EQ(m.llc.line_size, m.line_size) << m.name;
    EXPECT_GT(m.llc.size_bytes, m.l1.size_bytes) << m.name;
    EXPECT_GT(m.l1.NumSets(), 0u) << m.name;
    EXPECT_GT(m.llc.NumSets(), 0u) << m.name;
    EXPECT_GE(m.num_cores, 1u) << m.name;
    EXPECT_GE(m.store_buffer_entries, 8u) << m.name;
  }
}

TEST(Presets, CoreCountPropagates) {
  EXPECT_EQ(MachineA(3).num_cores, 3u);
  EXPECT_EQ(MachineBFast(7).num_cores, 7u);
}

// CacheConfig::Validate guards the invariants the cache model assumes:
// power-of-two line sizes (shift/mask indexing), ways within the kQuadAge
// victim-candidate buffer (uint32_t[64], one slot per way), power-of-two
// ways for the tree-PLRU walk, and at least one complete set.
TEST(CacheConfigValidate, AcceptsEveryPreset) {
  for (const MachineConfig& m :
       {MachineA(), MachineBFast(), MachineBSlow(), MachineACxlSsd()}) {
    EXPECT_NO_THROW(m.l1.Validate("l1")) << m.name;
    EXPECT_NO_THROW(m.llc.Validate("llc")) << m.name;
  }
}

TEST(CacheConfigValidate, RejectsZeroWays) {
  CacheConfig c = MachineA().llc;
  c.ways = 0;
  EXPECT_THROW(c.Validate("llc"), std::invalid_argument);
  // The cache validates before it derives its set count from ways.
  EXPECT_THROW(SetAssocCache cache(c, 1), std::invalid_argument);
}

TEST(CacheConfigValidate, RejectsWaysBeyondCandidateBuffer) {
  CacheConfig c = MachineA().llc;
  c.ways = 65;  // kQuadAge gathers candidates into a 64-slot buffer
  c.size_bytes = 65 * 64 * 16;  // keep at least one complete set
  EXPECT_THROW(c.Validate("llc"), std::invalid_argument);
  c.ways = 64;
  EXPECT_NO_THROW(c.Validate("llc"));
}

TEST(CacheConfigValidate, RejectsNonPow2LineSize) {
  CacheConfig c = MachineA().l1;
  c.line_size = 96;
  EXPECT_THROW(c.Validate("l1"), std::invalid_argument);
  c.line_size = 0;
  EXPECT_THROW(c.Validate("l1"), std::invalid_argument);
}

TEST(CacheConfigValidate, RejectsNonPow2WaysForTreePlru) {
  CacheConfig c = MachineA().l1;
  ASSERT_EQ(c.policy, ReplacementPolicy::kTreePlru);
  c.ways = 6;
  EXPECT_THROW(c.Validate("l1"), std::invalid_argument);
  // The same geometry is fine under a policy without the tree walk.
  c.policy = ReplacementPolicy::kLru;
  EXPECT_NO_THROW(c.Validate("l1"));
}

TEST(CacheConfigValidate, RejectsSizeWithoutOneFullSet) {
  CacheConfig c = MachineA().l1;
  c.size_bytes = c.ways * c.line_size - 1;
  EXPECT_THROW(c.Validate("l1"), std::invalid_argument);
}

TEST(CacheConfigValidate, RejectsSetBlockOverBudget) {
  CacheConfig c = MachineA().llc;
  // 100 ways: header AlignUp(32 + 900) = 960, block 960 + 100*32 -> 4160 B,
  // over the 4096 B per-set budget. (65..96 ways still fit the block budget
  // and are caught by the candidate-buffer rule instead.)
  c.ways = 100;
  c.size_bytes = 100 * 64 * 16;  // keep at least one complete set
  ASSERT_GT(SetBlockBytes(c.ways), kSetBlockMaxBytes);
  try {
    c.Validate("llc");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("SetBlock"), std::string::npos)
        << e.what();
  }
  // The largest legal way count fits the budget with room to spare.
  EXPECT_LE(SetBlockBytes(64), kSetBlockMaxBytes);
}

TEST(CacheConfigValidate, SetBlockGeometryMatchesLayoutRules) {
  // The helpers are the single source of truth for the block layout; pin
  // the arithmetic for the preset geometries (DESIGN.md §14).
  EXPECT_EQ(SetBlockHeaderBytes(8), 128u);   // 32 + 8*(8+1) -> 128
  EXPECT_EQ(SetBlockBytes(8), 384u);         // 128 + 8*32 -> 384
  EXPECT_EQ(SetBlockHeaderBytes(16), 192u);  // 32 + 16*(8+1) -> 192
  EXPECT_EQ(SetBlockBytes(16), 704u);        // 192 + 16*32 -> 704
  for (uint32_t ways : {1u, 4u, 8u, 16u, 64u}) {
    EXPECT_EQ(SetBlockHeaderBytes(ways) % kSetBlockAlign, 0u) << ways;
    EXPECT_EQ(SetBlockBytes(ways) % kSetBlockAlign, 0u) << ways;
  }
}

// DeviceConfig::Validate guards the PMEM XPBuffer model: each module
// reserves at most kPmemMaxBufferBlocks slots, the per-block written-line
// mask is 8 bits, and addresses map to modules by interleave_bytes. It runs
// in every build type, at device construction.
TEST(DeviceConfigValidate, AcceptsEveryPreset) {
  for (const MachineConfig& m :
       {MachineA(), MachineBFast(), MachineBSlow(), MachineACxlSsd()}) {
    EXPECT_NO_THROW(m.dram.Validate("dram")) << m.name;
    EXPECT_NO_THROW(m.target.Validate("target")) << m.name;
  }
}

TEST(DeviceConfigValidate, RejectsZeroBufferBlocks) {
  DeviceConfig d = MachineA().target;
  d.internal_buffer_blocks = 0;
  EXPECT_THROW(d.Validate("target"), std::invalid_argument);
}

TEST(DeviceConfigValidate, RejectsBufferBlocksPastReservationLimit) {
  DeviceConfig d = MachineA().target;
  d.internal_buffer_blocks = kPmemMaxBufferBlocks + 1;
  try {
    d.Validate("target");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("internal_buffer_blocks"),
              std::string::npos)
        << e.what();
  }
  // The largest bench sweep point and the limit itself are fine.
  d.internal_buffer_blocks = 1024;
  EXPECT_NO_THROW(d.Validate("target"));
  d.internal_buffer_blocks = kPmemMaxBufferBlocks;
  EXPECT_NO_THROW(d.Validate("target"));
}

TEST(DeviceConfigValidate, RejectsZeroBlockSize) {
  DeviceConfig d = MachineA().target;
  d.internal_block_size = 0;
  EXPECT_THROW(d.Validate("target"), std::invalid_argument);
}

TEST(DeviceConfigValidate, RejectsBlockSizePastWrittenMask) {
  DeviceConfig d = MachineA().target;
  d.internal_block_size = 1024;  // 16 lines: lines 8..15 would be dropped
  EXPECT_THROW(d.Validate("target"), std::invalid_argument);
  d.internal_block_size = kPmemMaxBlockBytes;  // the CXL-SSD preset's 512 B
  EXPECT_NO_THROW(d.Validate("target"));
}

TEST(DeviceConfigValidate, DeviceConstructionRejectsOversizedBuffer) {
  MachineConfig m = MachineA(1);
  m.target.internal_buffer_blocks = kPmemMaxBufferBlocks + 1;
  EXPECT_THROW(MakeDevice(m.target), std::invalid_argument);
}

TEST(DeviceConfigValidate, RejectsZeroInterleave) {
  // PmemDevice picks an address's module by addr / interleave_bytes; a zero
  // interleave must be refused before any access can divide by it.
  MachineConfig m = MachineA(1);
  m.target.interleave_bytes = 0;
  EXPECT_THROW(m.target.Validate("target"), std::invalid_argument);
  EXPECT_THROW(MakeDevice(m.target), std::invalid_argument);
  EXPECT_THROW(Machine machine(m), std::invalid_argument);
}

// ---- MachineConfig::Validate: the coherence directory's domain ----
// CacheLineMeta::sharers is a 64-bit mask and owner uses 0xff for "no
// owner", so core ids must stay below kMaxCores. Runs in every build type,
// in the Machine constructor.
TEST(MachineConfigValidate, AcceptsEveryPreset) {
  for (uint32_t cores : {1u, 10u, kMaxCores}) {
    for (const MachineConfig& m : {MachineA(cores), MachineBFast(cores),
                                   MachineBSlow(cores),
                                   MachineACxlSsd(cores)}) {
      EXPECT_NO_THROW(m.Validate()) << m.name << " x" << cores;
    }
  }
}

TEST(MachineConfigValidate, RejectsZeroCores) {
  EXPECT_THROW(MachineA(0).Validate(), std::invalid_argument);
  EXPECT_THROW(Machine m(MachineA(0)), std::invalid_argument);
}

TEST(MachineConfigValidate, RejectsCoresPastSharerMask) {
  try {
    MachineA(kMaxCores + 1).Validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("num_cores"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Machine m(MachineA(70)), std::invalid_argument);
}

TEST(MachineConfigValidate, RejectsL1LineSizeMismatch) {
  MachineConfig m = MachineA(2);
  m.l1.line_size = 128;
  EXPECT_THROW(m.Validate(), std::invalid_argument);
}

TEST(MachineConfigValidate, RejectsLlcLineSizeMismatch) {
  MachineConfig m = MachineBFast(2);
  m.llc.line_size = 64;
  EXPECT_THROW(m.Validate(), std::invalid_argument);
}

// Addresses at or above kTargetBase are routed to the target region, so a
// DRAM region reaching it would hand out addresses that alias the target.
TEST(MachineConfigValidate, RejectsDramRegionReachingTargetBase) {
  MachineConfig m = MachineA(1);
  m.dram_region_bytes = kTargetBase - kDramBase;
  EXPECT_NO_THROW(m.Validate());
  m.dram_region_bytes = kTargetBase - kDramBase + 1;
  try {
    m.Validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("dram_region_bytes"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Machine machine(m), std::invalid_argument);
}

}  // namespace
}  // namespace prestore
