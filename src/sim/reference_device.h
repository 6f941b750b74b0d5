// Preserved pre-rework PMEM device implementation, kept as the behavioral
// reference for the indexed XPBuffer / cached-backlog fast path in
// PmemDevice (same pattern as src/sim/reference_cache.h for the SetBlock
// layout): a recency-ordered slot array scanned linearly with
// rotate-to-front on hit, an eager max-over-DIMMs backlog walk, and the
// per-line writeback train inherited from Device. MakeDevice returns this
// implementation when DeviceConfig::reference_impl is set; the equivalence
// suites (tests/device_equiv_test.cc, tests/meter_test.cc) and the tier-1
// miss-heavy smoke replay identical traces through both and require
// bit-identical digests, stats, and completion times.
//
// Deliberately NOT refactored to share code with PmemDevice: the value of
// the reference is that it cannot silently inherit a bug from the
// implementation it checks.
#ifndef SRC_SIM_REFERENCE_DEVICE_H_
#define SRC_SIM_REFERENCE_DEVICE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/device.h"

namespace prestore {

class ReferencePmemDevice : public Device {
 public:
  explicit ReferencePmemDevice(const DeviceConfig& config)
      : Device(config), dimms_(std::max(1u, config.interleave_dimms)) {
    for (Dimm& d : dimms_) {
      d.slots.reserve(config.internal_buffer_blocks);
    }
  }

  uint64_t Read(uint64_t addr, uint32_t bytes, uint64_t now) override {
    uint64_t flushed = 0;
    const uint64_t delay = TouchBlock(addr, /*dirty=*/false, now, &flushed);
    const uint64_t start =
        ReserveBandwidth(bytes, now + delay, config_.cycles_per_byte);
    ++stats_.reads;
    stats_.bytes_read += bytes;
    stats_.media_bytes_written += flushed;
    return start + config_.read_latency +
           static_cast<uint64_t>(bytes * config_.cycles_per_byte) +
           FaultLatency(/*is_write=*/false, now);
  }

  uint64_t Write(uint64_t addr, uint32_t bytes, uint64_t now) override {
    uint64_t flushed = 0;
    const uint64_t delay = TouchBlock(addr, /*dirty=*/true, now, &flushed);
    const uint64_t start =
        ReserveBandwidth(bytes, now + delay, config_.cycles_per_byte);
    ++stats_.writes;
    stats_.bytes_received += bytes;
    stats_.media_bytes_written += flushed;
    return start + config_.write_latency +
           static_cast<uint64_t>(bytes * config_.cycles_per_byte) +
           FaultLatency(/*is_write=*/true, now);
  }

  void Drain() override {
    for (Dimm& dimm : dimms_) {
      for (const BufferedBlock& entry : dimm.slots) {
        if (entry.dirty) {
          stats_.media_bytes_written += config_.internal_block_size;
        }
      }
      dimm.slots.clear();
    }
  }

  uint64_t InternalBacklogAt(uint64_t now) override {
    uint64_t max_backlog = 0;
    for (Dimm& d : dimms_) {
      max_backlog = std::max(max_backlog, d.media.BacklogAt(now));
    }
    return max_backlog;
  }

  void Quiesce() override {
    Device::Quiesce();
    for (Dimm& d : dimms_) {
      d.media.Quiesce();
    }
  }

 private:
  struct BufferedBlock {
    uint64_t block = 0;
    bool dirty = false;
    uint8_t written_mask = 0;
  };

  // One module: recency-ordered array — slots[0] is most recently used,
  // back() the LRU victim.
  struct Dimm {
    BandwidthMeter media;
    std::vector<BufferedBlock> slots;
  };

  uint64_t BlockWriteCost() const {
    return static_cast<uint64_t>(config_.internal_block_size *
                                 config_.media_cycles_per_byte *
                                 static_cast<double>(dimms_.size()));
  }

  uint64_t BlockReadCost() const {
    const double cpb = config_.media_read_cycles_per_byte > 0.0
                           ? config_.media_read_cycles_per_byte
                           : config_.media_cycles_per_byte / 3.0;
    return static_cast<uint64_t>(config_.internal_block_size * cpb *
                                 static_cast<double>(dimms_.size()));
  }

  Dimm& DimmFor(uint64_t addr) {
    return dimms_[(addr / config_.interleave_bytes) % dimms_.size()];
  }

  uint64_t TouchBlock(uint64_t addr, bool dirty, uint64_t now,
                      uint64_t* media_bytes_flushed) {
    Dimm& dimm = DimmFor(addr);
    const uint64_t block = addr / config_.internal_block_size;
    const uint64_t lines_per_block =
        std::max<uint64_t>(1, config_.internal_block_size / 64);
    const uint8_t full_mask =
        static_cast<uint8_t>((1u << lines_per_block) - 1);
    const uint8_t line_bit = static_cast<uint8_t>(
        1u << ((addr % config_.internal_block_size) / 64));
    uint64_t media_work = 0;
    uint32_t capacity = config_.internal_buffer_blocks;
    if (DeviceFaultHook* hook = fault_hook()) {
      const uint32_t stolen = hook->StolenBufferBlocks(now);
      capacity = stolen >= capacity ? 1 : capacity - stolen;
    }
    std::vector<BufferedBlock>& slots = dimm.slots;
    const size_t n = slots.size();
    for (size_t i = 0; i < n; ++i) {
      if (slots[i].block == block) {
        BufferedBlock hit = slots[i];
        hit.dirty = hit.dirty || dirty;
        if (dirty) {
          hit.written_mask |= line_bit;
        }
        for (size_t j = i; j > 0; --j) {
          slots[j] = slots[j - 1];
        }
        slots[0] = hit;
        return 0;  // coalesced: served from the buffer, no media work
      }
    }
    while (slots.size() >= capacity) {
      const BufferedBlock victim = slots.back();
      slots.pop_back();
      if (victim.dirty) {
        media_work += BlockWriteCost();
        if ((victim.written_mask & full_mask) != full_mask) {
          media_work += BlockReadCost();
        }
        *media_bytes_flushed += config_.internal_block_size;
      }
    }
    slots.insert(slots.begin(),
                 BufferedBlock{block, dirty,
                               dirty ? line_bit : static_cast<uint8_t>(0)});
    if (!dirty) {
      media_work += BlockReadCost();
    }
    if (media_work == 0) {
      return 0;
    }
    if (DeviceFaultHook* hook = fault_hook()) {
      media_work = static_cast<uint64_t>(
          static_cast<double>(media_work) *
          std::max(1.0, hook->BandwidthCostMultiplier(now)));
    }
    return dimm.media.Reserve(media_work, now);
  }

  std::vector<Dimm> dimms_;
};

}  // namespace prestore

#endif  // SRC_SIM_REFERENCE_DEVICE_H_
