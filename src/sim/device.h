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
    return ReserveRun(cost, 1, now);
  }

  // Backlog (cycles of scheduled work the device is behind) as observed by
  // a requester at local time `now`. Advances the reference first so that
  // idle periods retire backlog even when nothing reserves.
  uint64_t BacklogAt(uint64_t now) {
    AdvanceRef(now > kWindow ? now - kWindow : 0);
    return work_ > ref_ ? work_ - ref_ : 0;
  }

  // Closed-form batch reservation: charges `count` back-to-back
  // reservations of `cost` cycles each, all issued at local time `now`, in
  // one arithmetic step. The meter is analytical, so the per-reservation
  // recurrence collapses: after the reference advance, the first
  // reservation's base is b = max(work, ref) and every subsequent one sees
  // work already >= ref, so reservation i (1-based) experiences delay
  //   delay_i = max(b - ref, 0) + (i - 1) * cost
  // and the final work counter is b + count * cost — exactly the state K
  // single Reserve() calls leave behind (meter_test.cc proves this for
  // randomized interleavings). Returns delay_1; callers needing later
  // delays derive them from the arithmetic progression. Used for writeback
  // trains whose reservations share one issue time (Device::WriteTrain).
  uint64_t ReserveRun(uint64_t cost, uint64_t count, uint64_t now) {
    if (count == 0) {
      return 0;
    }
    AdvanceRef(now > kWindow ? now - kWindow : 0);
    const uint64_t base = work_ > ref_ ? work_ : ref_;
    PRESTORE_INVARIANT(base + cost * count >= base,
                       "BandwidthMeter work counter overflow");
    work_ = base + cost * count;
    return base - ref_;
  }

  // Applies an observation floor deferred by a caller-side cache (see
  // PmemDevice::InternalBacklogAt): raises the reference exactly as the
  // BacklogAt() call that recorded the floor would have. The reference is
  // only ever read after a floor advance, so applying the recorded maximum
  // lazily — at the meter's next use — yields bit-identical delays and
  // backlogs to applying it eagerly at observation time.
  void ObserveFloor(uint64_t floor) { AdvanceRef(floor); }

  // Scheduled-work high-water accessor for caller-side backlog caches: a
  // meter whose work counter is at or below a requester's floor cannot
  // report backlog to that requester.
  uint64_t WorkMark() const { return work_; }

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

  // Accounting-only writeback train: `n` line writes all issued at `now`
  // whose completion times the caller provably never observes (cache-flush
  // sweeps — Machine::FlushAll — discard them). Semantically identical to n
  // Write() calls in order; subclasses override to charge the shared-time
  // interface reservations in one closed-form ReserveRun step and bump
  // stats once. The default (and the path taken whenever a fault hook is
  // installed, since hooks may keep per-call state) is the plain loop.
  virtual void WriteTrain(const uint64_t* addrs, size_t n, uint32_t bytes,
                          uint64_t now) {
    for (size_t i = 0; i < n; ++i) {
      Write(addrs[i], bytes, now);
    }
  }

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

  // Whether a fault-injection hook is installed. The batched writeback
  // trains (WriteTrain) fall back to per-write charging while one is: hooks
  // may keep per-call state, so they must see every access individually.
  bool HasFaultHook() const { return fault_hook_ != nullptr; }

 protected:
  DeviceFaultHook* fault_hook() const { return fault_hook_; }

  // Cycles of work `bytes` reserves on a meter, with any active
  // bandwidth-throttle fault applied.
  uint64_t TransferCost(uint32_t bytes, uint64_t now, double cpb) const {
    double cost = static_cast<double>(bytes) * cpb;
    if (DeviceFaultHook* hook = fault_hook()) {
      cost *= std::max(1.0, hook->BandwidthCostMultiplier(now));
    }
    return static_cast<uint64_t>(cost);
  }

  uint64_t ReserveBandwidth(uint32_t bytes, uint64_t now, double cpb) {
    return now + interface_.Reserve(TransferCost(bytes, now, cpb), now);
  }

  // Latency-spike fault contribution for an access issued at `now`.
  uint64_t FaultLatency(bool is_write, uint64_t now) const {
    DeviceFaultHook* hook = fault_hook();
    return hook != nullptr ? hook->ExtraLatency(is_write, now) : 0;
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
  void WriteTrain(const uint64_t* addrs, size_t n, uint32_t bytes,
                  uint64_t now) override;
};

// Optane-like persistent memory. The media internally reads and writes
// `internal_block_size`-byte blocks through a small buffer (the XPBuffer):
//  - a 64B access to a buffered block coalesces (no media work);
//  - a miss fetches the whole block from the media (read amplification) and,
//    when it evicts a dirty block, flushes that block (write amplification —
//    the §4.1 mechanism the paper measures with ipmctl).
// All media work goes through one work-conserving FIFO meter; each request
// that causes media work inherits exactly its own queueing delay, so
// sustained amplified traffic paces the cores to the media rate, and
// read/write interference (Optane's notoriously degraded read latency under
// write pressure) emerges naturally.
class PmemDevice : public Device {
 public:
  explicit PmemDevice(const DeviceConfig& config)
      : Device(config), dimms_(std::max(1u, config.interleave_dimms)) {
    // The index is sized for the configured capacity; buffer-pressure
    // faults only ever SHRINK the usable slot count, so the table never
    // needs to grow mid-run. DeviceConfig::Validate (run by the Device
    // constructor) keeps the capacity in [1, kPmemMaxBufferBlocks], below
    // the kIndexEmpty sentinel.
    const uint32_t cap = config.internal_buffer_blocks;
    uint32_t bits = 2;
    while ((1u << bits) < 4 * cap) {
      ++bits;
    }
    for (Dimm& d : dimms_) {
      d.slots.assign(cap, BufferedBlock{});
      d.index.assign(1u << bits, kIndexEmpty);
    }
    // Hot-path constants, hoisted out of TouchBlock. The cost expressions
    // are evaluated exactly as the per-call forms evaluated them (one
    // double product, truncated once), so the precomputed values are
    // bit-identical. The address decompositions below use shift/mask when
    // the geometry is power-of-two (every shipped preset); otherwise
    // TouchBlock falls back to the division forms.
    block_write_cost_ = static_cast<uint64_t>(
        config_.internal_block_size * config_.media_cycles_per_byte *
        static_cast<double>(dimms_.size()));
    const double read_cpb = config_.media_read_cycles_per_byte > 0.0
                                ? config_.media_read_cycles_per_byte
                                : config_.media_cycles_per_byte / 3.0;
    block_read_cost_ = static_cast<uint64_t>(config_.internal_block_size *
                                             read_cpb *
                                             static_cast<double>(dimms_.size()));
    const uint64_t lines_per_block =
        std::max<uint64_t>(1, config_.internal_block_size / 64);
    full_mask_ = lines_per_block >= 8
                     ? static_cast<uint8_t>(0xff)
                     : static_cast<uint8_t>((1u << lines_per_block) - 1);
    auto pow2_log = [](uint64_t v, uint32_t* log) {
      if (v == 0 || (v & (v - 1)) != 0) {
        return false;
      }
      *log = static_cast<uint32_t>(__builtin_ctzll(v));
      return true;
    };
    pow2_geometry_ =
        pow2_log(config_.interleave_bytes, &interleave_shift_) &&
        pow2_log(dimms_.size(), &dimm_shift_) &&
        pow2_log(config_.internal_block_size, &block_shift_);
  }

  uint64_t Read(uint64_t addr, uint32_t bytes, uint64_t now) override;
  uint64_t Write(uint64_t addr, uint32_t bytes, uint64_t now) override;
  void WriteTrain(const uint64_t* addrs, size_t n, uint32_t bytes,
                  uint64_t now) override;
  void Drain() override;

  // Backlog watermark (diagnostics hot path: the pre-store governor samples
  // this once per evaluation window). The common case — media idle or
  // caught up — is answered from a cached high-water mark of scheduled
  // media work without touching any per-DIMM meter: a meter whose work
  // counter is at or below the observer's floor cannot report backlog. The
  // reference advance the per-DIMM BacklogAt() calls would have performed
  // is NOT lost: the observation floor is recorded (max-monotone) and every
  // later meter use applies it first (BandwidthMeter::ObserveFloor), so all
  // subsequently observed delays and backlogs are bit-identical to the
  // eager max-over-DIMMs scan (randomized cross-check in meter_test.cc).
  uint64_t InternalBacklogAt(uint64_t now) override {
    const uint64_t floor =
        now > BandwidthMeter::kWindow ? now - BandwidthMeter::kWindow : 0;
    observed_floor_ = std::max(observed_floor_, floor);
    if (media_work_peak_ <= floor) {
      return 0;
    }
    uint64_t max_backlog = 0;
    for (Dimm& d : dimms_) {
      d.media.ObserveFloor(observed_floor_);
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
  static constexpr uint16_t kIndexEmpty = 0xffff;
  static_assert(kPmemMaxBufferBlocks < kIndexEmpty,
                "a slot id must never equal the empty-index sentinel");

  struct BufferedBlock {
    uint64_t block = 0;
    // Recency stamp: strictly increasing per touch within a DIMM, so the
    // minimum-stamp valid slot is exactly the block a recency-ordered
    // array would hold at its back — victim selection (and hence all media
    // accounting) is bit-identical to the rotate-to-front layout this
    // replaces.
    uint64_t stamp = 0;
    bool valid = false;
    bool dirty = false;
    // Which line-sized chunks of the block have been written: a fully
    // written block flushes without the read-modify-write fetch (why
    // sequential write streams are cheap on these devices).
    uint8_t written_mask = 0;
  };

  // One module: its own XPBuffer and its own share of the media bandwidth.
  // Slots live at FIXED positions (no rotate-to-front shuffling on every
  // hit); recency is carried by per-slot stamps and lookup goes through a
  // small open-addressed block->slot index with a last-hit hint checked
  // first. Back-to-back accesses to one block — the coalescing pattern the
  // XPBuffer exists for — resolve in a single compare; everything else is
  // one hashed probe instead of a scan plus an up-to-
  // sizeof(BufferedBlock)*capacity shift.
  struct Dimm {
    BandwidthMeter media;
    std::vector<BufferedBlock> slots;
    std::vector<uint16_t> index;  // hash(block) -> slot, kIndexEmpty = free
    uint64_t stamp_counter = 0;
    uint16_t last_hit = 0;  // hint: slot of the most recent block hit
    uint16_t valid_count = 0;
  };

  uint32_t IndexMask(const Dimm& d) const {
    return static_cast<uint32_t>(d.index.size() - 1);
  }
  static uint32_t BlockHash(uint64_t block) {
    return static_cast<uint32_t>((block * 0x9e3779b97f4a7c15ULL) >> 33);
  }

  // Open-addressed helpers (linear probing, backward-shift deletion). The
  // table is tiny (4x slot capacity), so clusters stay short.
  uint16_t* IndexFind(Dimm& d, uint64_t block);
  void IndexInsert(Dimm& d, uint64_t block, uint16_t slot);
  void IndexErase(Dimm& d, uint64_t block);

  Dimm& DimmFor(uint64_t addr) {
    if (pow2_geometry_) {
      return dimms_[(addr >> interleave_shift_) &
                    ((1ULL << dimm_shift_) - 1)];
    }
    return dimms_[(addr / config_.interleave_bytes) % dimms_.size()];
  }

  uint64_t BlockOf(uint64_t addr) const {
    return pow2_geometry_ ? addr >> block_shift_
                          : addr / config_.internal_block_size;
  }

  uint8_t LineBitOf(uint64_t addr) const {
    const uint64_t off = pow2_geometry_
                             ? addr & ((1ULL << block_shift_) - 1)
                             : addr % config_.internal_block_size;
    return static_cast<uint8_t>(1u << (off / 64));
  }

  // Ensures the block holding `addr` is buffered in its module; marks it
  // dirty for writes. Returns the media queueing delay this access
  // inherited (block fetch and/or dirty victim flush). Also accounts media
  // write bytes flushed.
  uint64_t TouchBlock(uint64_t addr, bool dirty, uint64_t now,
                      uint64_t* media_bytes_flushed);

  std::vector<Dimm> dimms_;
  // High-water mark of any DIMM's scheduled media work (max-monotone) and
  // the maximum observation floor whose reference advance is still owed to
  // the per-DIMM meters. Together they implement the InternalBacklogAt
  // fast path above.
  uint64_t media_work_peak_ = 0;
  uint64_t observed_floor_ = 0;
  // Constructor-computed TouchBlock constants (see constructor comment).
  // config_.media_cycles_per_byte is the AGGREGATE bandwidth; each module
  // provides 1/N of it, hence the dimms_ factor in the block costs.
  uint64_t block_write_cost_ = 0;
  uint64_t block_read_cost_ = 0;
  uint8_t full_mask_ = 0;
  bool pow2_geometry_ = false;
  uint32_t interleave_shift_ = 0;
  uint32_t dimm_shift_ = 0;
  uint32_t block_shift_ = 0;
};

// CXL-/FPGA-like far memory: long latency, limited bandwidth, and — crucially
// for Problem #2 — the cache directory lives on the device, so every line
// state change pays a device round trip (§4.2).
class FarMemoryDevice : public Device {
 public:
  explicit FarMemoryDevice(const DeviceConfig& config) : Device(config) {}

  uint64_t Read(uint64_t addr, uint32_t bytes, uint64_t now) override;
  uint64_t Write(uint64_t addr, uint32_t bytes, uint64_t now) override;
  void WriteTrain(const uint64_t* addrs, size_t n, uint32_t bytes,
                  uint64_t now) override;
  uint64_t DirectoryAccess(uint64_t now) override;
};

std::unique_ptr<Device> MakeDevice(const DeviceConfig& config);

}  // namespace prestore

#endif  // SRC_SIM_DEVICE_H_
