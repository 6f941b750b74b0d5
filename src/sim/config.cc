#include "src/sim/config.h"

#include <stdexcept>
#include <string>

namespace prestore {

namespace {

bool IsPow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

[[noreturn]] void Invalid(const char* what, const std::string& why) {
  throw std::invalid_argument(std::string(what) + ": " + why);
}

}  // namespace

void CacheConfig::Validate(const char* what) const {
  if (!IsPow2(line_size)) {
    Invalid(what, "line_size must be a nonzero power of two, got " +
                      std::to_string(line_size));
  }
  if (ways != 0 && SetBlockBytes(ways) > kSetBlockMaxBytes) {
    // The per-set metadata block (scalar header + packed tags + per-way
    // CacheLineMeta, cache.h) must stay within one host page or the
    // colocated layout stops buying anything.
    Invalid(what, "ways " + std::to_string(ways) + " needs a " +
                      std::to_string(SetBlockBytes(ways)) +
                      "B SetBlock, over the " +
                      std::to_string(kSetBlockMaxBytes) + "B per-set budget");
  }
  if (ways == 0 || ways > 64) {
    // kQuadAge's PickVictim gathers eviction candidates into a fixed
    // uint32_t[64]; one slot per way, so >64 ways would overflow it.
    Invalid(what, "ways must be in [1, 64] (victim-candidate buffer holds "
                  "one slot per way), got " +
                      std::to_string(ways));
  }
  if (policy == ReplacementPolicy::kTreePlru && !IsPow2(ways)) {
    Invalid(what, "kTreePlru needs power-of-two ways, got " +
                      std::to_string(ways));
  }
  if (NumSets() == 0) {
    Invalid(what, "size_bytes " + std::to_string(size_bytes) +
                      " holds no complete set of " + std::to_string(ways) +
                      " x " + std::to_string(line_size) + "B lines");
  }
}

void DeviceConfig::Validate(const char* what) const {
  if (kind != DeviceKind::kPmem) {
    return;
  }
  if (internal_buffer_blocks == 0 ||
      internal_buffer_blocks > kPmemMaxBufferBlocks) {
    Invalid(what, "internal_buffer_blocks must be in [1, " +
                      std::to_string(kPmemMaxBufferBlocks) +
                      "] (per-DIMM slot reservation), got " +
                      std::to_string(internal_buffer_blocks));
  }
  if (internal_block_size == 0 || internal_block_size > kPmemMaxBlockBytes) {
    Invalid(what, "internal_block_size must be in [1, " +
                      std::to_string(kPmemMaxBlockBytes) +
                      "] (8-bit written-line mask), got " +
                      std::to_string(internal_block_size));
  }
  if (interleave_bytes == 0) {
    // PmemDevice maps an address to its module by addr / interleave_bytes.
    Invalid(what, "interleave_bytes must be nonzero");
  }
}

void MachineConfig::Validate() const {
  if (num_cores == 0 || num_cores > kMaxCores) {
    Invalid("machine", "num_cores must be in [1, " +
                           std::to_string(kMaxCores) +
                           "] (64-bit sharer mask), got " +
                           std::to_string(num_cores));
  }
  l1.Validate("l1");
  llc.Validate("llc");
  if (l1.line_size != line_size || llc.line_size != line_size) {
    Invalid("machine", "cache line sizes (l1 " + std::to_string(l1.line_size) +
                           ", llc " + std::to_string(llc.line_size) +
                           ") must equal line_size " +
                           std::to_string(line_size));
  }
  if (dram_region_bytes > kTargetBase - kDramBase) {
    // A DRAM address at or past kTargetBase would be routed to the target
    // region's backing and device.
    Invalid("machine", "dram_region_bytes " +
                           std::to_string(dram_region_bytes) +
                           " overlaps the target region (at most " +
                           std::to_string(kTargetBase - kDramBase) + ")");
  }
}

MachineConfig MachineA(uint32_t num_cores) {
  MachineConfig m;
  m.name = "machine-A";
  m.num_cores = num_cores;
  m.line_size = 64;
  m.drain = StoreDrainPolicy::kEagerTso;
  m.store_buffer_entries = 56;
  m.wc_buffer_entries = 24;

  m.l1 = CacheConfig{.size_bytes = 32 << 10,
                     .ways = 8,
                     .line_size = 64,
                     .hit_latency = 4,
                     .policy = ReplacementPolicy::kTreePlru};
  // 27.5MB/11-way in the real part; scaled to 2MB/16-way (working sets in the
  // benchmarks are scaled by the same factor).
  m.llc = CacheConfig{.size_bytes = 2 << 20,
                      .ways = 16,
                      .line_size = 64,
                      .hit_latency = 40,
                      .policy = ReplacementPolicy::kQuadAge};

  m.dram = DeviceConfig{.kind = DeviceKind::kDram,
                        .name = "ddr4",
                        .capacity = 64ULL << 20,
                        .read_latency = 80,
                        .write_latency = 80,
                        .cycles_per_byte = 0.02};

  // Optane-like persistent memory: 256B internal blocks, small write-
  // combining buffer, media write bandwidth well below the DDR interface.
  m.target = DeviceConfig{.kind = DeviceKind::kPmem,
                          .name = "optane-pmem",
                          .capacity = 512ULL << 20,
                          .read_latency = 170,
                          .write_latency = 90,
                          .cycles_per_byte = 0.08,
                          .internal_block_size = 256,
                          .media_cycles_per_byte = 0.45};

  m.dram_region_bytes = m.dram.capacity;
  m.target_region_bytes = m.target.capacity;
  return m;
}

MachineConfig MachineACxlSsd(uint32_t num_cores) {
  MachineConfig m = MachineA(num_cores);
  m.name = "machine-A-cxl-ssd";
  m.target.name = "cxl-ssd";
  m.target.read_latency = 350;   // byte-addressable CXL flash tier
  m.target.write_latency = 200;
  m.target.internal_block_size = 512;
  m.target.internal_buffer_blocks = 8;
  m.target.interleave_dimms = 4;
  m.target.media_cycles_per_byte = 0.9;
  return m;
}

namespace {

MachineConfig MachineBBase(uint32_t num_cores) {
  MachineConfig m;
  m.num_cores = num_cores;
  m.line_size = 128;  // ThunderX-1 cache line
  m.drain = StoreDrainPolicy::kLazyWeak;
  m.store_buffer_entries = 32;
  // The in-order ThunderX-1 drains its store buffer serially at a fence —
  // the §4.2 "last minute" publication stall pre-stores hide.
  m.fence_drain_parallelism = 1;

  m.l1 = CacheConfig{.size_bytes = 32 << 10,
                     .ways = 8,
                     .line_size = 128,
                     .hit_latency = 4,
                     .policy = ReplacementPolicy::kLru};
  m.llc = CacheConfig{.size_bytes = 2 << 20,
                      .ways = 16,
                      .line_size = 128,
                      .hit_latency = 37,
                      .policy = ReplacementPolicy::kRandom};

  m.dram = DeviceConfig{.kind = DeviceKind::kDram,
                        .name = "ddr4",
                        .capacity = 64ULL << 20,
                        .read_latency = 100,
                        .write_latency = 100,
                        .cycles_per_byte = 0.03};
  m.dram_region_bytes = m.dram.capacity;
  return m;
}

}  // namespace

MachineConfig MachineBFast(uint32_t num_cores) {
  MachineConfig m = MachineBBase(num_cores);
  m.name = "machine-B-fast";
  // FPGA memory accessed in 60 cycles at 10GB/s (~5 B/cycle at 2GHz).
  m.target = DeviceConfig{.kind = DeviceKind::kFarMemory,
                          .name = "fpga-fast",
                          .capacity = 512ULL << 20,
                          .read_latency = 60,
                          .write_latency = 60,
                          .cycles_per_byte = 0.2,
                          .directory_latency = 60};
  m.target_region_bytes = m.target.capacity;
  return m;
}

MachineConfig MachineBSlow(uint32_t num_cores) {
  MachineConfig m = MachineBBase(num_cores);
  m.name = "machine-B-slow";
  // FPGA memory accessed in 200 cycles at 1.5GB/s (~0.75 B/cycle at 2GHz).
  m.target = DeviceConfig{.kind = DeviceKind::kFarMemory,
                          .name = "fpga-slow",
                          .capacity = 512ULL << 20,
                          .read_latency = 200,
                          .write_latency = 200,
                          .cycles_per_byte = 1.33,
                          .directory_latency = 200};
  m.target_region_bytes = m.target.capacity;
  return m;
}

std::optional<MachineConfig> MachinePresetNamed(std::string_view name,
                                                uint32_t num_cores) {
  if (name == "A") {
    return MachineA(num_cores);
  }
  if (name == "B-fast") {
    return MachineBFast(num_cores);
  }
  if (name == "B-slow") {
    return MachineBSlow(num_cores);
  }
  return std::nullopt;
}

}  // namespace prestore
