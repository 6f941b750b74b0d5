// Memory device models sitting below the cache hierarchy.
//
// Timing uses a reservation model: each device keeps a `busy_until` cycle
// counter; a transfer of B bytes issued at core-local time `now` starts at
// max(now, busy_until) and occupies the device for B * cycles_per_byte. This
// makes bandwidth contention between cores emerge naturally (the saturation
// behaviour behind Figure 3's thread sweep).
#ifndef SRC_SIM_DEVICE_H_
#define SRC_SIM_DEVICE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/config.h"
#include "src/sim/hooks.h"
#include "src/sim/invariant.h"

namespace prestore {

struct DeviceStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_read = 0;
  // Bytes the device received from cache evictions / writebacks.
  uint64_t bytes_received = 0;
  // Bytes actually written to the media (>= bytes_received on PMEM when
  // writebacks do not coalesce into whole internal blocks).
  uint64_t media_bytes_written = 0;
  uint64_t directory_accesses = 0;

  // Write amplification as the paper measures it with ipmctl (§4.1):
  // media bytes written / bytes evicted from the CPU cache.
  double WriteAmplification() const {
    return bytes_received == 0
               ? 1.0
               : static_cast<double>(media_bytes_written) /
                     static_cast<double>(bytes_received);
  }
};

// Backlog-based bandwidth meter.
//
// Simulated cores run with skewed local clocks, so shared timing state must
// never be kept as absolute "busy until" times: a core that is momentarily
// ahead would park reservations in every other core's future and serialize
// the machine on phantom queueing. The meter instead tracks scheduled WORK
// (cycles of occupancy) against a virtual reference that is the maximum of
// all requesters' (now - window): the queueing delay seen by a request is
// the amount of work beyond what the device could have retired by the
// reference time. Delays are durations, so clock skew up to `window`
// cancels out; sustained demand beyond 1 cycle of work per cycle of time
// produces exactly the right pacing.
class BandwidthMeter {
 public:
  // Clock-skew tolerance / burst window (cycles).
  static constexpr uint64_t kWindow = 1500;

  // Schedules `cost` cycles of work issued at local time `now`; returns the
  // queueing delay (0 when the device keeps up).
  uint64_t Reserve(uint64_t cost, uint64_t now) {
    AdvanceRef(now > kWindow ? now - kWindow : 0);
    const uint64_t base = work_ > ref_ ? work_ : ref_;
    PRESTORE_INVARIANT(base + cost >= base,
                       "BandwidthMeter work counter overflow");
    work_ = base + cost;
    return base - ref_;
  }

  // Backlog (cycles of scheduled work the device is behind) as observed by
  // a requester at local time `now`. Advances the reference first so that
  // idle periods retire backlog even when nothing reserves.
  uint64_t BacklogAt(uint64_t now) {
    AdvanceRef(now > kWindow ? now - kWindow : 0);
    return work_ > ref_ ? work_ - ref_ : 0;
  }

  // Retires all scheduled work, modeling idle wall-clock time passing until
  // the device catches up (the "sleep after the load phase" every real
  // experiment does before its measurement window). Advancing only the
  // reference is safe for requesters whose clocks lag it: delays are
  // computed against max(work, ref), so a quiesced meter simply reports no
  // queueing until new work accumulates. Call only between measured runs.
  void Quiesce() { AdvanceRef(work_); }

 private:
  // Only ever raises the reference, so no requester may observe it moving
  // backwards in time.
  void AdvanceRef(uint64_t floor) { ref_ = std::max(ref_, floor); }

  uint64_t work_ = 0;
  uint64_t ref_ = 0;
};

class Device {
 public:
  // Throws std::invalid_argument for an invalid `config`
  // (DeviceConfig::Validate), in every build type.
  explicit Device(const DeviceConfig& config) : config_(config) {
    config_.Validate(config_.name.c_str());
  }
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  // Returns the completion time of a read issued at `now`.
  virtual uint64_t Read(uint64_t addr, uint32_t bytes, uint64_t now) = 0;

  // Returns the completion time of a write issued at `now` (the time at which
  // the device has accepted the data; media persistence may lag internally).
  virtual uint64_t Write(uint64_t addr, uint32_t bytes, uint64_t now) = 0;

  // Cost of a cache-directory access for a line homed on this device.
  // Returns the completion time. Default: free (directory lives in the LLC).
  virtual uint64_t DirectoryAccess(uint64_t now) { return now; }

  // Drains internal buffers (accounting only; used at end of measurement).
  virtual void Drain() {}

  // Retires any queued interface/media work without advancing core clocks:
  // the load phase's eviction and flush traffic must not carry queueing
  // delay into the measurement window (see BandwidthMeter::Quiesce). Call
  // only between measured runs.
  virtual void Quiesce() { interface_.Quiesce(); }

  // Diagnostics: cycles of internal (media) work the device is behind, as
  // seen at local time `now`. 0 for devices without an internal stage.
  virtual uint64_t InternalBacklogAt(uint64_t now) {
    (void)now;
    return 0;
  }

  const DeviceConfig& config() const { return config_; }

  const DeviceStats& Stats() const { return stats_; }

  void ResetStats() { stats_ = DeviceStats{}; }

  // Installs (or clears, with nullptr) the fault-injection hook. Install
  // before a measured run; the hook must outlive the run.
  void SetFaultHook(DeviceFaultHook* hook) { fault_hook_ = hook; }

 protected:
  // Reserves the interface transfer of `bytes` issued at `now`; returns its
  // start time.
  uint64_t ReserveBandwidth(uint32_t bytes, uint64_t now, double cpb) {
    const double cost = static_cast<double>(bytes) * cpb;
    return now + interface_.Reserve(static_cast<uint64_t>(cost), now);
  }

  // Latency-spike fault contribution for an access issued at `now`.
  uint64_t FaultLatency(bool is_write, uint64_t now) const {
    return fault_hook_ != nullptr ? fault_hook_->ExtraLatency(is_write, now)
                                  : 0;
  }

  const DeviceConfig config_;
  DeviceStats stats_;

  BandwidthMeter interface_;
  DeviceFaultHook* fault_hook_ = nullptr;
};

// Conventional DRAM: fixed latency + interface bandwidth; writes to the media
// are 1:1 with received bytes (no internal granularity mismatch).
class DramDevice : public Device {
 public:
  explicit DramDevice(const DeviceConfig& config) : Device(config) {}

  uint64_t Read(uint64_t addr, uint32_t bytes, uint64_t now) override;
  uint64_t Write(uint64_t addr, uint32_t bytes, uint64_t now) override;
};

// Optane-like persistent memory. The media internally reads and writes
// `internal_block_size`-byte blocks through a small buffer (the XPBuffer):
//  - a 64B access to a buffered block coalesces (no media work);
//  - a miss fetches the whole block from the media (read amplification) and,
//    when it evicts a dirty block, flushes that block (write amplification —
//    the §4.1 mechanism the paper measures with ipmctl).
// All media work goes through one work-conserving FIFO meter per module;
// each request that causes media work inherits exactly its own queueing
// delay, so sustained amplified traffic paces the cores to the media rate,
// and read/write interference (Optane's notoriously degraded read latency
// under write pressure) emerges naturally.
class PmemDevice : public Device {
 public:
  explicit PmemDevice(const DeviceConfig& config);

  uint64_t Read(uint64_t addr, uint32_t bytes, uint64_t now) override;
  uint64_t Write(uint64_t addr, uint32_t bytes, uint64_t now) override;
  void Drain() override;
  void Quiesce() override;

  // The largest media backlog over the modules (the pre-store governor
  // samples this once per evaluation window).
  uint64_t InternalBacklogAt(uint64_t now) override;

 private:
  struct BufferedBlock {
    uint64_t block = 0;
    bool dirty = false;
    // Which line-sized chunks of the block have been written: a fully
    // written block flushes without the read-modify-write fetch (why
    // sequential write streams are cheap on these devices).
    uint8_t written_mask = 0;
  };

  // One module: its own XPBuffer and its own share of the media bandwidth.
  // The buffer is recency-ordered: slots.front() is the most recently used
  // block, slots.back() the LRU victim.
  struct Dimm {
    BandwidthMeter media;
    std::vector<BufferedBlock> slots;
  };

  Dimm& DimmFor(uint64_t addr) {
    return dimms_[(addr / config_.interleave_bytes) % dimms_.size()];
  }

  // Ensures the block holding `addr` is buffered in its module; marks it
  // dirty for writes. Returns the media queueing delay this access
  // inherited (block fetch and/or dirty victim flush). Also accounts media
  // write bytes flushed.
  uint64_t TouchBlock(uint64_t addr, bool dirty, uint64_t now,
                      uint64_t* media_bytes_flushed);

  std::vector<Dimm> dimms_;
  // Media cycles to write / fetch one internal block on one module.
  // config_.media_cycles_per_byte is the AGGREGATE bandwidth; each module
  // provides 1/N of it, hence the module-count factor.
  const uint64_t block_write_cost_;
  const uint64_t block_read_cost_;
  // written_mask of a block whose every line was written.
  const uint8_t full_mask_;
};

// CXL-/FPGA-like far memory: DRAM-like transfers at long latency and
// limited bandwidth, plus — crucially for Problem #2 — the cache directory
// lives on the device, so every line state change pays a device round trip
// (§4.2).
class FarMemoryDevice : public DramDevice {
 public:
  explicit FarMemoryDevice(const DeviceConfig& config) : DramDevice(config) {}

  uint64_t DirectoryAccess(uint64_t now) override;
};

std::unique_ptr<Device> MakeDevice(const DeviceConfig& config);

}  // namespace prestore

#endif  // SRC_SIM_DEVICE_H_
