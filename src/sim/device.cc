#include "src/sim/device.h"

#include "src/sim/reference_device.h"

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

void DramDevice::WriteTrain(const uint64_t* addrs, size_t n, uint32_t bytes,
                            uint64_t now) {
  if (n == 0) {
    return;
  }
  if (config_.reference_impl || HasFaultHook()) {
    Device::WriteTrain(addrs, n, bytes, now);
    return;
  }
  // All n writes share one issue time and (hook-free) one transfer cost, so
  // the meter recurrence collapses into a single closed-form charge; the
  // per-write completion times the loop would compute are unobserved by
  // every WriteTrain caller.
  interface_.ReserveRun(TransferCost(bytes, now, config_.cycles_per_byte), n,
                        now);
  stats_.writes += n;
  stats_.bytes_received += static_cast<uint64_t>(n) * bytes;
  stats_.media_bytes_written += static_cast<uint64_t>(n) * bytes;
}

// ---- PmemDevice: open-addressed XPBuffer index ----

uint16_t* PmemDevice::IndexFind(Dimm& d, uint64_t block) {
  const uint32_t mask = IndexMask(d);
  uint32_t pos = BlockHash(block) & mask;
  while (true) {
    const uint16_t s = d.index[pos];
    if (s == kIndexEmpty) {
      return nullptr;
    }
    if (d.slots[s].block == block) {
      return &d.index[pos];
    }
    pos = (pos + 1) & mask;
  }
}

void PmemDevice::IndexInsert(Dimm& d, uint64_t block, uint16_t slot) {
  const uint32_t mask = IndexMask(d);
  uint32_t pos = BlockHash(block) & mask;
  while (d.index[pos] != kIndexEmpty) {
    pos = (pos + 1) & mask;
  }
  d.index[pos] = slot;
}

void PmemDevice::IndexErase(Dimm& d, uint64_t block) {
  const uint32_t mask = IndexMask(d);
  uint32_t pos = BlockHash(block) & mask;
  while (d.index[pos] == kIndexEmpty || d.slots[d.index[pos]].block != block) {
    PRESTORE_INVARIANT(d.index[pos] != kIndexEmpty,
                       "XPBuffer index erase of an unindexed block");
    pos = (pos + 1) & mask;
  }
  // Backward-shift deletion: pull cluster members whose probe path crosses
  // the hole back into it, so lookups never need tombstones.
  uint32_t hole = pos;
  uint32_t next = (hole + 1) & mask;
  while (d.index[next] != kIndexEmpty) {
    const uint32_t ideal = BlockHash(d.slots[d.index[next]].block) & mask;
    if (((next - ideal) & mask) >= ((next - hole) & mask)) {
      d.index[hole] = d.index[next];
      hole = next;
    }
    next = (next + 1) & mask;
  }
  d.index[hole] = kIndexEmpty;
}

uint64_t PmemDevice::TouchBlock(uint64_t addr, bool dirty, uint64_t now,
                                uint64_t* media_bytes_flushed) {
  Dimm& dimm = DimmFor(addr);
  const uint64_t block = BlockOf(addr);
  const uint8_t line_bit = LineBitOf(addr);
  uint64_t media_work = 0;
  // Buffer-pressure faults shrink the usable XPBuffer (never below one
  // slot), forcing early evictions exactly like competing internal traffic.
  uint32_t capacity = config_.internal_buffer_blocks;
  if (DeviceFaultHook* hook = fault_hook()) {
    const uint32_t stolen = hook->StolenBufferBlocks(now);
    capacity = stolen >= capacity ? 1 : capacity - stolen;
  }
  std::vector<BufferedBlock>& slots = dimm.slots;
  // Hinted hit: back-to-back accesses to one internal block — the
  // coalescing pattern sequentialized writebacks are shaped for —
  // resolve on a single compare.
  BufferedBlock& hinted = slots[dimm.last_hit];
  if (hinted.valid && hinted.block == block) {
    hinted.stamp = ++dimm.stamp_counter;
    hinted.dirty = hinted.dirty || dirty;
    if (dirty) {
      hinted.written_mask |= line_bit;
    }
    return 0;  // coalesced: served from the buffer, no media work
  }
  if (uint16_t* ip = IndexFind(dimm, block)) {
    const uint16_t s = *ip;
    BufferedBlock& hit = slots[s];
    hit.stamp = ++dimm.stamp_counter;
    hit.dirty = hit.dirty || dirty;
    if (dirty) {
      hit.written_mask |= line_bit;
    }
    dimm.last_hit = s;
    return 0;  // coalesced: served from the buffer, no media work
  }
  // Miss: evict least-recently-stamped blocks down to a free slot. The
  // minimum stamp is exactly the block a recency-ordered array would
  // evict from its back, so the flush order — and with it the §4.1
  // media-byte accounting — is bit-identical to the reference scan.
  // Every eviction leaves a known-free slot, so the steady-state path
  // (full buffer, one eviction per insert) never rescans for one;
  // scanning is only needed when the buffer has never been full. Which
  // slot INDEX receives the block is simulation-neutral — recency lives
  // in the stamps and lookup in the index, so any free slot yields the
  // same timing, stats, and digests.
  uint32_t free_slot = UINT32_MAX;
  while (dimm.valid_count >= capacity) {
    uint32_t vi = 0;
    uint64_t oldest = UINT64_MAX;
    for (uint32_t i = 0; i < slots.size(); ++i) {
      if (slots[i].valid && slots[i].stamp < oldest) {
        oldest = slots[i].stamp;
        vi = i;
      }
    }
    BufferedBlock& victim = slots[vi];
    if (victim.dirty) {
      // Dirty-block flush: the §4.1 write amplification. A partially
      // written block additionally pays the read-modify-write fetch.
      media_work += block_write_cost_;
      if ((victim.written_mask & full_mask_) != full_mask_) {
        media_work += block_read_cost_;
      }
      *media_bytes_flushed += config_.internal_block_size;
    }
    IndexErase(dimm, victim.block);
    victim.valid = false;
    --dimm.valid_count;
    free_slot = vi;
  }
  if (free_slot == UINT32_MAX) {
    for (uint32_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].valid) {
        free_slot = i;
        break;
      }
    }
  }
  slots[free_slot] =
      BufferedBlock{block, ++dimm.stamp_counter, /*valid=*/true, dirty,
                    dirty ? line_bit : static_cast<uint8_t>(0)};
  ++dimm.valid_count;
  IndexInsert(dimm, block, static_cast<uint16_t>(free_slot));
  dimm.last_hit = static_cast<uint16_t>(free_slot);
  if (!dirty) {
    // A read miss must fetch the block to serve the data (the
    // read-amplification side; media reads are cheaper than writes).
    media_work += block_read_cost_;
  }
  if (media_work == 0) {
    return 0;  // buffered: no media work, no queueing
  }
  if (DeviceFaultHook* hook = fault_hook()) {
    media_work = static_cast<uint64_t>(
        static_cast<double>(media_work) *
        std::max(1.0, hook->BandwidthCostMultiplier(now)));
  }
  // Apply any deferred observation floor before the reserve reads the
  // reference, then refresh the device-level work high-water mark the
  // InternalBacklogAt fast path tests against.
  dimm.media.ObserveFloor(observed_floor_);
  const uint64_t delay = dimm.media.Reserve(media_work, now);
  media_work_peak_ = std::max(media_work_peak_, dimm.media.WorkMark());
  return delay;
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

void PmemDevice::WriteTrain(const uint64_t* addrs, size_t n, uint32_t bytes,
                            uint64_t now) {
  if (n == 0) {
    return;
  }
  if (config_.reference_impl || HasFaultHook()) {
    Device::WriteTrain(addrs, n, bytes, now);
    return;
  }
  // The XPBuffer touches must stay per-line and in order — FlushAll's
  // global-set-major walk order is load-bearing for media-byte accounting —
  // but the interface meter is independent of the media meters, so its
  // same-cost charges regroup into maximal equal-issue-time runs, each a
  // single closed-form ReserveRun. In the common case (the whole train
  // coalesces into buffered blocks, every TouchBlock delay is 0) that is
  // ONE meter transaction for the entire sweep.
  const uint64_t cost = TransferCost(bytes, now, config_.cycles_per_byte);
  uint64_t flushed = 0;
  uint64_t run_at = 0;
  uint64_t run_len = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t line_flushed = 0;
    const uint64_t delay =
        TouchBlock(addrs[i], /*dirty=*/true, now, &line_flushed);
    flushed += line_flushed;
    const uint64_t at = now + delay;
    if (run_len != 0 && at == run_at) {
      ++run_len;
      continue;
    }
    if (run_len != 0) {
      interface_.ReserveRun(cost, run_len, run_at);
    }
    run_at = at;
    run_len = 1;
  }
  interface_.ReserveRun(cost, run_len, run_at);
  stats_.writes += n;
  stats_.bytes_received += static_cast<uint64_t>(n) * bytes;
  stats_.media_bytes_written += flushed;
}

void PmemDevice::Drain() {
  for (Dimm& dimm : dimms_) {
    for (BufferedBlock& entry : dimm.slots) {
      if (entry.valid && entry.dirty) {
        stats_.media_bytes_written += config_.internal_block_size;
      }
      entry.valid = false;
    }
    std::fill(dimm.index.begin(), dimm.index.end(), kIndexEmpty);
    dimm.valid_count = 0;
    dimm.last_hit = 0;
  }
}

uint64_t FarMemoryDevice::Read(uint64_t addr, uint32_t bytes, uint64_t now) {
  (void)addr;
  const uint64_t start = ReserveBandwidth(bytes, now, config_.cycles_per_byte);
  ++stats_.reads;
  stats_.bytes_read += bytes;
  return start + config_.read_latency +
         static_cast<uint64_t>(bytes * config_.cycles_per_byte) +
         FaultLatency(/*is_write=*/false, now);
}

uint64_t FarMemoryDevice::Write(uint64_t addr, uint32_t bytes, uint64_t now) {
  (void)addr;
  const uint64_t start = ReserveBandwidth(bytes, now, config_.cycles_per_byte);
  ++stats_.writes;
  stats_.bytes_received += bytes;
  stats_.media_bytes_written += bytes;
  return start + config_.write_latency +
         static_cast<uint64_t>(bytes * config_.cycles_per_byte) +
         FaultLatency(/*is_write=*/true, now);
}

void FarMemoryDevice::WriteTrain(const uint64_t* addrs, size_t n,
                                 uint32_t bytes, uint64_t now) {
  if (n == 0) {
    return;
  }
  if (config_.reference_impl || HasFaultHook()) {
    Device::WriteTrain(addrs, n, bytes, now);
    return;
  }
  interface_.ReserveRun(TransferCost(bytes, now, config_.cycles_per_byte), n,
                        now);
  stats_.writes += n;
  stats_.bytes_received += static_cast<uint64_t>(n) * bytes;
  stats_.media_bytes_written += static_cast<uint64_t>(n) * bytes;
}

uint64_t FarMemoryDevice::DirectoryAccess(uint64_t now) {
  // The line-state directory lives on the device (§4.2): a state change costs
  // a device round trip plus a small transfer.
  const uint64_t start = ReserveBandwidth(8, now, config_.cycles_per_byte);
  ++stats_.directory_accesses;
  uint64_t extra = 0;
  if (DeviceFaultHook* hook = fault_hook()) {
    // Directory-timeout faults: the device-resident directory stops
    // answering for a window; every line-state change stalls behind it.
    extra = hook->ExtraDirectoryLatency(now);
  }
  return start + config_.directory_latency + extra;
}

std::unique_ptr<Device> MakeDevice(const DeviceConfig& config) {
  switch (config.kind) {
    case DeviceKind::kDram:
      return std::make_unique<DramDevice>(config);
    case DeviceKind::kPmem:
      if (config.reference_impl) {
        return std::make_unique<ReferencePmemDevice>(config);
      }
      return std::make_unique<PmemDevice>(config);
    case DeviceKind::kFarMemory:
      return std::make_unique<FarMemoryDevice>(config);
  }
  return nullptr;
}

}  // namespace prestore
