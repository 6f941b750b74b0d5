// The simulated machine: address space, devices, shared LLC, coherence.
#ifndef SRC_SIM_MACHINE_H_
#define SRC_SIM_MACHINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "src/sim/cache.h"
#include "src/sim/config.h"
#include "src/sim/core.h"
#include "src/sim/device.h"
#include "src/sim/hooks.h"
#include "src/sim/optlock.h"
#include "src/trace/trace.h"

namespace prestore {

// The two address regions. Workloads place their data in kTarget (the memory
// under study: PMEM on Machine A, FPGA memory on Machine B); kDram exists for
// completeness and for data the paper keeps in ordinary memory.
enum class Region : uint8_t {
  kDram,
  kTarget,
};

inline constexpr SimAddr kDramBase = 0x10000;
inline constexpr SimAddr kTargetBase = 1ULL << 32;

// Aggregated shared-hierarchy event counters, as returned by
// Machine::hierarchy_stats(): the on-demand sum of the per-core stripes.
struct MachineStats {
  uint64_t llc_hits = 0;
  uint64_t llc_misses = 0;
  uint64_t llc_evictions = 0;
  uint64_t back_invalidations = 0;  // L1 lines stripped by LLC
  uint64_t interventions = 0;       // dirty-owner snoops
  uint64_t wbq_stall_cycles = 0;    // writeback-queue waits
  uint64_t dir_upgrades = 0;        // far-memory dir round trips
};

// One core's private slice of the shared-hierarchy counters. Padded to a
// cache line so neighbouring cores' bumps never share one. Each stripe is
// written only by the owning core's host thread, so bumps are single-writer
// relaxed load+store pairs — no RMW, no contention — while readers
// (aggregation, mid-run diagnostics) stay race-free.
struct alignas(64) MachineStatStripe {
  std::atomic<uint64_t> llc_hits{0};
  std::atomic<uint64_t> llc_misses{0};
  std::atomic<uint64_t> llc_evictions{0};
  std::atomic<uint64_t> back_invalidations{0};
  std::atomic<uint64_t> interventions{0};
  std::atomic<uint64_t> wbq_stall_cycles{0};
  std::atomic<uint64_t> dir_upgrades{0};

  void Reset() {
    llc_hits.store(0, std::memory_order_relaxed);
    llc_misses.store(0, std::memory_order_relaxed);
    llc_evictions.store(0, std::memory_order_relaxed);
    back_invalidations.store(0, std::memory_order_relaxed);
    interventions.store(0, std::memory_order_relaxed);
    wbq_stall_cycles.store(0, std::memory_order_relaxed);
    dir_upgrades.store(0, std::memory_order_relaxed);
  }
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  const MachineConfig& config() const { return config_; }
  Core& core(uint32_t i) { return *cores_[i]; }
  uint32_t num_cores() const { return static_cast<uint32_t>(cores_.size()); }

  Device& dram() { return *dram_; }
  Device& target() { return *target_; }
  Device& DeviceFor(SimAddr addr) {
    return addr >= kTargetBase ? *target_ : *dram_;
  }

  // ---- Address space ----

  // Bump-allocates `bytes` in the given region, aligned to `align` (default:
  // one cache line, to keep separately allocated objects conflict-free).
  SimAddr Alloc(uint64_t bytes, Region region = Region::kTarget,
                uint64_t align = 0);

  uint8_t* HostPtr(SimAddr addr) {
    return addr >= kTargetBase
               ? target_backing_.data() + (addr - kTargetBase)
               : dram_backing_.data() + (addr - kDramBase);
  }
  const uint8_t* HostPtr(SimAddr addr) const {
    return const_cast<Machine*>(this)->HostPtr(addr);
  }

  // ---- Tracing & symbolization ----

  FunctionRegistry& registry() { return registry_; }
  // Install/clear the trace sink. Safe mid-run: each core caches the
  // pointer in a core-local atomic (refreshed here), so its per-op emit
  // check is one uncontended acquire load — a plain load on x86/ARM —
  // instead of a pointer chase through the machine.
  void SetTraceSink(TraceSink* sink) {
    sink_.store(sink, std::memory_order_release);
    RefreshCoreFastPaths();
  }
  TraceSink* trace_sink() const {
    return sink_.load(std::memory_order_acquire);
  }

  // ---- Robustness hooks (install before a measured run; not thread-safe
  // against running cores; hooks must outlive the run) ----

  // Installs a device-side fault hook on both devices (nullptr clears).
  void SetDeviceFaultHook(DeviceFaultHook* hook) {
    dram_->SetFaultHook(hook);
    target_->SetFaultHook(hook);
  }

  // Registers a pre-store issue-path hook (fault injector, governor, ...).
  // A hint issues only if every registered hook allows it.
  void AddPrestoreHook(PrestoreHook* hook) {
    prestore_hooks_.push_back(hook);
    RefreshCoreFastPaths();
  }
  void ClearPrestoreHooks() {
    prestore_hooks_.clear();
    RefreshCoreFastPaths();
  }
  const std::vector<PrestoreHook*>& prestore_hooks() const {
    return prestore_hooks_;
  }

  // Installs (or clears, with nullptr) the single sampled-access observer
  // (src/monitor). Same contract as the pre-store hooks: install with cores
  // quiesced, hook outlives the run.
  void SetAccessSampleHook(AccessSampleHook* hook) {
    access_sampler_ = hook;
    RefreshCoreFastPaths();
  }
  AccessSampleHook* access_sample_hook() const { return access_sampler_; }

  // ---- Execution modes (DESIGN.md §12) ----

  // Exclusive execution: the caller guarantees that AT MOST ONE host thread
  // drives the machine (cores, coherence, devices) at any instant — either
  // truly single-threaded (sequential replay, 1-worker runs) or serialized
  // with proper handoff synchronization (the time-sliced scheduler). While
  // set, every engine serialization mutex is elided (optlock.h); simulated
  // results are unchanged (the mutexes never affected them). Toggle only
  // while no cores are running.
  void SetExclusiveExecution(bool on) {
    exclusive_.store(on, std::memory_order_release);
    dram_->SetLockFree(on);
    target_->SetLockFree(on);
    RefreshCoreFastPaths();
  }
  bool exclusive_execution() const {
    return exclusive_.load(std::memory_order_relaxed);
  }

  // ---- Measurement helpers ----

  // Aligns every core's local clock to the global maximum (start of a
  // measured phase) and returns that time.
  uint64_t AlignCores();
  uint64_t GlobalTime() const;
  // Max over the cores' lock-free published clocks (used by SpinPause; may
  // lag each core's true clock by up to one ordering operation).
  uint64_t ApproxGlobalTime() const;
  void ResetStats();

  // Retires all queued device work (interface and media meters), modeling
  // the idle gap every real experiment leaves between its load phase and
  // its measurement window. Pair with FlushAll + ResetStats when a run's
  // latency numbers must not inherit the preload's eviction backlog.
  void QuiesceDevices() {
    dram_->Quiesce();
    target_->Quiesce();
  }

  // Publishes all private stores, writes every dirty line back and drains
  // device buffers, so that media-byte accounting covers all traffic.
  void FlushAll();

  // ---- Coherence (called by Core; do not hold locks when calling) ----

  enum class AccessMode : uint8_t { kRead, kWrite, kDemote };

  // Ensures `line_addr` is present in the LLC with the coherence state the
  // mode requires, charging directory/device costs. `streamed` applies the
  // sequential-stream latency discount (hardware-prefetch stand-in).
  // `incoming_dirty` is used by kDemote to push modified data down.
  uint64_t LlcAccess(uint8_t self, uint64_t line_addr, AccessMode mode,
                     uint64_t start, bool streamed = false,
                     bool incoming_dirty = false);

  // Makes a private store globally visible: line ends up Modified in core
  // `self`'s L1. Returns completion time. (The §4.2 "publication" cost.)
  uint64_t PublishLine(uint8_t self, uint64_t line_addr, uint64_t start);

  // Demote pre-store: publication straight into the LLC; the L1 copy (if
  // any) moves down with its dirtiness.
  uint64_t PublishLineDemote(uint8_t self, uint64_t line_addr, uint64_t start);

  // Clean pre-store: write the line's dirty data (wherever it is) back to
  // its device, keeping it cached. Returns writeback completion (== start
  // when nothing was dirty).
  uint64_t CleanLine(uint8_t self, uint64_t line_addr, uint64_t start);

  // Invalidate the line everywhere (non-temporal store path). Dirty data is
  // dropped from the timing model (the NT store supersedes it functionally).
  void InvalidateLine(uint8_t self, uint64_t line_addr);

  // Handles a dirty line evicted from an L1: merge into LLC or write through
  // to the device. Inline: runs on every L1 fill whose victim was valid,
  // which a miss-dominated stream makes nearly every op.
  void L1VictimWriteback(uint8_t self, uint64_t line_addr, bool dirty,
                         uint64_t now) {
    {
      LlcShard& shard = ShardFor(line_addr);
      OptionalLockGuard shard_lock(shard.mu, exclusive_execution());
      CacheLineMeta* meta = shard.cache->Probe(line_addr);
      if (meta != nullptr) {
        meta->sharers &= ~(1ULL << self);
        if (meta->owner == self) {
          meta->owner = kNoOwner;
        }
        if (dirty) {
          meta->dirty = true;
        }
        return;
      }
    }
    // Dirty victim with no LLC copy: the memory write needs no shard state,
    // so it runs with the shard unlocked.
    if (dirty) {
      DeviceFor(line_addr).Write(line_addr, config_.line_size, now);
    }
  }

  uint64_t LineBaseOf(SimAddr addr) const {
    return LineBase(addr, config_.line_size);
  }

  // Non-mutating residency probe against the (inclusive) LLC. Used by the
  // rewrite-after-clean detector: a rewrite wastes the clean's writeback
  // only while the line is still cached (absent the clean the dirty data
  // would have coalesced); a long-evicted line owed its writeback anyway.
  bool LlcResident(uint64_t line_addr) {
    LlcShard& shard = ShardFor(line_addr);
    OptionalLockGuard lock(shard.mu, exclusive_execution());
    return shard.cache->Peek(line_addr) != nullptr;
  }

  // LlcResident plus the line's dirtiness — the region monitor's
  // once-per-region-per-interval pull probe. Non-mutating (no replacement
  // touch, no way-hint update, no stats — hence Peek); `*dirty` is written
  // only on residency.
  bool LlcProbe(uint64_t line_addr, bool* dirty) {
    LlcShard& shard = ShardFor(line_addr);
    OptionalLockGuard lock(shard.mu, exclusive_execution());
    const CacheLineMeta* meta = shard.cache->Peek(line_addr);
    if (meta == nullptr) {
      return false;
    }
    *dirty = meta->dirty;
    return true;
  }

  // Bytes bump-allocated in the target region so far. Lets callers (e.g. a
  // whole-workload region monitor) cover exactly the allocated target span
  // [kTargetBase, kTargetBase + target_allocated()).
  uint64_t target_allocated() const {
    return target_brk_.load(std::memory_order_relaxed);
  }

  // On-demand aggregate of the per-core counter stripes. Exact once the
  // cores have quiesced; a mid-run snapshot may miss in-flight bumps (the
  // old global-atomic accounting had the same property).
  MachineStats hierarchy_stats() const {
    MachineStats out;
    for (size_t i = 0; i < cores_.size(); ++i) {
      const MachineStatStripe& s = hstripes_[i];
      out.llc_hits += s.llc_hits.load(std::memory_order_relaxed);
      out.llc_misses += s.llc_misses.load(std::memory_order_relaxed);
      out.llc_evictions += s.llc_evictions.load(std::memory_order_relaxed);
      out.back_invalidations +=
          s.back_invalidations.load(std::memory_order_relaxed);
      out.interventions += s.interventions.load(std::memory_order_relaxed);
      out.wbq_stall_cycles +=
          s.wbq_stall_cycles.load(std::memory_order_relaxed);
      out.dir_upgrades += s.dir_upgrades.load(std::memory_order_relaxed);
    }
    return out;
  }

  // Test-only: additionally mirror every stripe bump into one shared struct
  // with fetch_add — the pre-rework accounting — so a test can assert the
  // striped aggregate reproduces it exactly on the same concurrent run.
  // Call before the run; costs one predictable branch per bump thereafter.
  void EnableShadowStats() {
    if (shadow_hstats_ == nullptr) {
      shadow_hstats_ = std::make_unique<MachineStatStripe>();
    }
  }
  MachineStats ShadowStatsSnapshot() const {
    MachineStats out;
    if (shadow_hstats_ != nullptr) {
      const MachineStatStripe& s = *shadow_hstats_;
      out.llc_hits = s.llc_hits.load(std::memory_order_relaxed);
      out.llc_misses = s.llc_misses.load(std::memory_order_relaxed);
      out.llc_evictions = s.llc_evictions.load(std::memory_order_relaxed);
      out.back_invalidations =
          s.back_invalidations.load(std::memory_order_relaxed);
      out.interventions = s.interventions.load(std::memory_order_relaxed);
      out.wbq_stall_cycles =
          s.wbq_stall_cycles.load(std::memory_order_relaxed);
      out.dir_upgrades = s.dir_upgrades.load(std::memory_order_relaxed);
    }
    return out;
  }

  // Sorted addresses of every line currently valid in the LLC. Diagnostics
  // and determinism digests only — call when no cores are running.
  std::vector<uint64_t> LlcValidLines() const;

 private:
  // One LLC shard: every kNumShards-th set of the logical LLC, with its own
  // replacement state and lock, padded so shards never share a cache line.
  // The shard of global set g is g % kNumShards — the same mapping the
  // pre-rework engine used for its mutex array, so the serialization
  // constraints (and hence all simulated results) are unchanged.
  struct alignas(64) LlcShard {
    std::unique_ptr<SetAssocCache> cache;
    std::mutex mu;
  };

  size_t LlcShardIndexOf(uint64_t line_addr) const {
    const uint64_t frame = line_addr >> llc_line_shift_;
    const uint64_t g = llc_set_mask_ != 0 ? (frame & llc_set_mask_)
                                          : llc_set_mod_.Mod(frame);
    return g & (kNumShards - 1);
  }
  LlcShard& ShardFor(uint64_t line_addr) {
    return llc_shards_[LlcShardIndexOf(line_addr)];
  }

  // Hit-path coherence protocol, run under the line's shard lock: hit
  // accounting, intervention on a Modified owner, snoop of other sharers on
  // non-read access, the far-memory directory upgrade, and the mode's
  // directory update. Shared by the first probe and the post-miss re-probe
  // so a line another core filled while the shard was unlocked gets the
  // identical treatment. Returns the access completion time.
  uint64_t LlcHitLocked(uint8_t self, uint64_t line_addr, AccessMode mode,
                        bool incoming_dirty, Device& dev, bool far,
                        CacheLineMeta* meta, uint64_t t);

  // Handles an LLC victim under the shard lock: back-invalidates L1 copies
  // and accounts the eviction. Returns true when a dirty writeback is owed;
  // the caller performs it via FinishEvictionWriteback AFTER releasing the
  // shard lock (device meters have their own synchronization).
  bool HandleLlcVictimLocked(uint8_t self,
                             const SetAssocCache::Victim& victim);

  // Issues an eviction writeback to the victim's device. Returns the time
  // the evicting access of core `self` may proceed: eviction writebacks go
  // through the core's bounded writeback queue, so a device that has fallen
  // behind stalls the cache (without this, deferred eviction traffic would
  // be free and the §4.1 write amplification could never cost baseline
  // runtime).
  uint64_t FinishEvictionWriteback(uint8_t self, uint64_t line_addr,
                                   uint64_t now);

  // Single-writer stripe bump (core `self`'s host thread), mirrored into
  // the shadow struct when a stats-equivalence test enabled it.
  void Bump(uint8_t self, std::atomic<uint64_t> MachineStatStripe::*field,
            uint64_t n = 1) {
    std::atomic<uint64_t>& c = hstripes_[self].*field;
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
    if (shadow_hstats_ != nullptr) {
      (shadow_hstats_.get()->*field).fetch_add(n, std::memory_order_relaxed);
    }
  }

  void RefreshCoreFastPaths();

  static constexpr size_t kNumShards = 64;

  MachineConfig config_;
  std::unique_ptr<Device> dram_;
  std::unique_ptr<Device> target_;

  std::vector<LlcShard> llc_shards_;
  uint64_t llc_global_sets_ = 0;
  uint64_t llc_set_mask_ = 0;  // llc_global_sets_ - 1 when pow2, else 0
  // Remainder by llc_global_sets_ for the non-power-of-two fallback (same
  // magic-multiply trick as SetAssocCache::GlobalSetOf).
  ModReciprocal llc_set_mod_;
  uint32_t llc_line_shift_ = 0;

  std::vector<std::unique_ptr<Core>> cores_;

  std::vector<uint8_t> dram_backing_;
  std::vector<uint8_t> target_backing_;
  std::atomic<uint64_t> dram_brk_{0};
  std::atomic<uint64_t> target_brk_{0};

  std::unique_ptr<MachineStatStripe[]> hstripes_;  // one per core
  std::unique_ptr<MachineStatStripe> shadow_hstats_;
  FunctionRegistry registry_;
  std::atomic<TraceSink*> sink_{nullptr};
  std::vector<PrestoreHook*> prestore_hooks_;
  AccessSampleHook* access_sampler_ = nullptr;
  std::atomic<bool> exclusive_{false};
};

// RAII scope for Machine::SetExclusiveExecution: sets the mode on entry and
// restores the previous mode on exit (exception-safe, nestable).
class ExclusiveExecutionScope {
 public:
  explicit ExclusiveExecutionScope(Machine& machine)
      : machine_(machine), prev_(machine.exclusive_execution()) {
    machine_.SetExclusiveExecution(true);
  }
  ~ExclusiveExecutionScope() { machine_.SetExclusiveExecution(prev_); }

  ExclusiveExecutionScope(const ExclusiveExecutionScope&) = delete;
  ExclusiveExecutionScope& operator=(const ExclusiveExecutionScope&) = delete;

 private:
  Machine& machine_;
  bool prev_;
};

}  // namespace prestore

#endif  // SRC_SIM_MACHINE_H_
