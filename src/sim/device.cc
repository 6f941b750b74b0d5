#include "src/sim/device.h"

namespace prestore {

uint64_t DramDevice::Read(uint64_t addr, uint32_t bytes, uint64_t now) {
  (void)addr;
  const uint64_t start = ReserveBandwidth(bytes, now, config_.cycles_per_byte);
  ++stats_.reads;
  stats_.bytes_read += bytes;
  return start + config_.read_latency +
         static_cast<uint64_t>(bytes * config_.cycles_per_byte) +
         FaultLatency(/*is_write=*/false, now);
}

uint64_t DramDevice::Write(uint64_t addr, uint32_t bytes, uint64_t now) {
  (void)addr;
  const uint64_t start = ReserveBandwidth(bytes, now, config_.cycles_per_byte);
  ++stats_.writes;
  stats_.bytes_received += bytes;
  stats_.media_bytes_written += bytes;
  return start + config_.write_latency +
         static_cast<uint64_t>(bytes * config_.cycles_per_byte) +
         FaultLatency(/*is_write=*/true, now);
}

namespace {

double MediaReadCyclesPerByte(const DeviceConfig& config) {
  return config.media_read_cycles_per_byte > 0.0
             ? config.media_read_cycles_per_byte
             : config.media_cycles_per_byte / 3.0;
}

}  // namespace

PmemDevice::PmemDevice(const DeviceConfig& config)
    : Device(config),
      dimms_(std::max(1u, config.interleave_dimms)),
      block_write_cost_(static_cast<uint64_t>(
          config.internal_block_size * config.media_cycles_per_byte *
          static_cast<double>(dimms_.size()))),
      block_read_cost_(static_cast<uint64_t>(
          config.internal_block_size * MediaReadCyclesPerByte(config) *
          static_cast<double>(dimms_.size()))),
      full_mask_(static_cast<uint8_t>(
          (1u << std::max<uint32_t>(1, config.internal_block_size / 64)) -
          1)) {
  // The configured capacity (bounded by DeviceConfig::Validate, which the
  // Device constructor ran) is the most a module ever holds.
  for (Dimm& d : dimms_) {
    d.slots.reserve(config.internal_buffer_blocks);
  }
}

uint64_t PmemDevice::TouchBlock(uint64_t addr, bool dirty, uint64_t now,
                                uint64_t* media_bytes_flushed) {
  Dimm& dimm = DimmFor(addr);
  const uint64_t block = addr / config_.internal_block_size;
  const uint8_t line_bit = static_cast<uint8_t>(
      1u << ((addr % config_.internal_block_size) / 64));
  std::vector<BufferedBlock>& slots = dimm.slots;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].block == block) {
      BufferedBlock& hit = slots[i];
      hit.dirty = hit.dirty || dirty;
      if (dirty) {
        hit.written_mask |= line_bit;
      }
      std::rotate(slots.begin(), slots.begin() + i, slots.begin() + i + 1);
      return 0;  // coalesced: served from the buffer, no media work
    }
  }
  uint64_t media_work = 0;
  while (slots.size() >= config_.internal_buffer_blocks) {
    const BufferedBlock victim = slots.back();
    slots.pop_back();
    if (victim.dirty) {
      // Dirty-block flush: the §4.1 write amplification. A partially
      // written block additionally pays the read-modify-write fetch.
      media_work += block_write_cost_;
      if ((victim.written_mask & full_mask_) != full_mask_) {
        media_work += block_read_cost_;
      }
      *media_bytes_flushed += config_.internal_block_size;
    }
  }
  slots.insert(slots.begin(),
               BufferedBlock{block, dirty,
                             dirty ? line_bit : static_cast<uint8_t>(0)});
  if (!dirty) {
    // A read miss must fetch the block to serve the data (the
    // read-amplification side; media reads are cheaper than writes).
    media_work += block_read_cost_;
  }
  if (media_work == 0) {
    return 0;  // buffered: no media work, no queueing
  }
  return dimm.media.Reserve(media_work, now);
}

uint64_t PmemDevice::Read(uint64_t addr, uint32_t bytes, uint64_t now) {
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

uint64_t PmemDevice::Write(uint64_t addr, uint32_t bytes, uint64_t now) {
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

void PmemDevice::Drain() {
  for (Dimm& dimm : dimms_) {
    for (const BufferedBlock& entry : dimm.slots) {
      if (entry.dirty) {
        stats_.media_bytes_written += config_.internal_block_size;
      }
    }
    dimm.slots.clear();
  }
}

void PmemDevice::Quiesce() {
  Device::Quiesce();
  for (Dimm& d : dimms_) {
    d.media.Quiesce();
  }
}

uint64_t PmemDevice::InternalBacklogAt(uint64_t now) {
  uint64_t max_backlog = 0;
  for (Dimm& d : dimms_) {
    max_backlog = std::max(max_backlog, d.media.BacklogAt(now));
  }
  return max_backlog;
}

uint64_t FarMemoryDevice::DirectoryAccess(uint64_t now) {
  // The line-state directory lives on the device (§4.2): a state change costs
  // a device round trip plus a small transfer.
  const uint64_t start = ReserveBandwidth(8, now, config_.cycles_per_byte);
  ++stats_.directory_accesses;
  return start + config_.directory_latency;
}

std::unique_ptr<Device> MakeDevice(const DeviceConfig& config) {
  switch (config.kind) {
    case DeviceKind::kDram:
      return std::make_unique<DramDevice>(config);
    case DeviceKind::kPmem:
      return std::make_unique<PmemDevice>(config);
    case DeviceKind::kFarMemory:
      return std::make_unique<FarMemoryDevice>(config);
  }
  return nullptr;
}

}  // namespace prestore
