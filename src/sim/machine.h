// The simulated machine: address space, devices, shared LLC, coherence.
#ifndef SRC_SIM_MACHINE_H_
#define SRC_SIM_MACHINE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/sim/cache.h"
#include "src/sim/config.h"
#include "src/sim/core.h"
#include "src/sim/device.h"
#include "src/sim/hooks.h"
#include "src/trace/trace.h"
#include "src/util/host_region.h"

namespace prestore {

// The two address regions. Workloads place their data in kTarget (the memory
// under study: PMEM on Machine A, FPGA memory on Machine B); kDram exists for
// completeness and for data the paper keeps in ordinary memory.
enum class Region : uint8_t {
  kDram,
  kTarget,
};

// Shared-hierarchy event counters (Machine::hierarchy_stats()).
struct MachineStats {
  uint64_t llc_hits = 0;
  uint64_t llc_misses = 0;
  uint64_t llc_evictions = 0;
  uint64_t back_invalidations = 0;  // L1 lines stripped by LLC
  uint64_t interventions = 0;       // dirty-owner snoops
  uint64_t wbq_stall_cycles = 0;    // writeback-queue waits
  uint64_t dir_upgrades = 0;        // far-memory dir round trips
};

class Machine {
 public:
  // Throws std::invalid_argument for an invalid `config`
  // (MachineConfig::Validate), in every build type.
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
  // Fresh memory reads as zero. Throws std::invalid_argument when `align`
  // is not a power of two; aborts when the region is exhausted.
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
  // Install/clear the trace sink. Each core caches the pointer (refreshed
  // here), so its per-op emit check is one load instead of a pointer chase
  // through the machine.
  void SetTraceSink(TraceSink* sink) {
    sink_ = sink;
    RefreshCoreFastPaths();
  }
  TraceSink* trace_sink() const { return sink_; }

  // ---- Robustness hooks (install before a measured run; hooks must
  // outlive the run) ----

  // Installs a device-side fault hook on both devices (nullptr clears).
  void SetDeviceFaultHook(DeviceFaultHook* hook) {
    dram_->SetFaultHook(hook);
    target_->SetFaultHook(hook);
  }

  // Registers a pre-store issue-path hook (governor, region monitor, ...).
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
  // (src/monitor). Same contract as the pre-store hooks: install between
  // runs, hook outlives the run.
  void SetAccessSampleHook(AccessSampleHook* hook) {
    access_sampler_ = hook;
    RefreshCoreFastPaths();
  }
  AccessSampleHook* access_sample_hook() const { return access_sampler_; }

  // ---- Measurement helpers ----

  // Aligns every core's local clock to the global maximum (start of a
  // measured phase) and returns that time.
  uint64_t AlignCores();
  uint64_t GlobalTime() const;
  // Max over the cores' published clocks (used by SpinPause; may lag each
  // core's true clock by up to one ordering operation).
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

  // ---- Coherence (called by Core) ----

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
    CacheLineMeta* meta = llc_->Probe(line_addr);
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
    return llc_->Peek(line_addr) != nullptr;
  }

  // Bytes bump-allocated in the target region so far. Lets callers (e.g. a
  // whole-workload region monitor) cover exactly the allocated target span
  // [kTargetBase, kTargetBase + target_allocated()).
  uint64_t target_allocated() const { return target_brk_; }

  const MachineStats& hierarchy_stats() const { return hstats_; }

  // Sorted addresses of every line currently valid in the LLC. Diagnostics
  // and determinism digests only — call when no cores are running.
  std::vector<uint64_t> LlcValidLines() const;
  // The LLC itself, read-only (tests comparing whole cache states).
  const SetAssocCache& llc() const { return *llc_; }

 private:
  // Hit-path coherence protocol: hit accounting, intervention on a
  // Modified owner, snoop of other sharers on non-read access, the
  // far-memory directory upgrade, and the mode's directory update. Returns
  // the access completion time.
  uint64_t LlcHit(uint8_t self, uint64_t line_addr, AccessMode mode,
                  bool incoming_dirty, Device& dev, bool far,
                  CacheLineMeta* meta, uint64_t t);

  // Handles an LLC victim: back-invalidates L1 copies and accounts the
  // eviction. Returns true when a dirty writeback is owed (the caller
  // issues it via FinishEvictionWriteback).
  bool HandleLlcVictim(const SetAssocCache::Victim& victim);

  // Issues an eviction writeback to the victim's device. Returns the time
  // the evicting access of core `self` may proceed: eviction writebacks go
  // through the core's bounded writeback queue, so a device that has fallen
  // behind stalls the cache (without this, deferred eviction traffic would
  // be free and the §4.1 write amplification could never cost baseline
  // runtime).
  uint64_t FinishEvictionWriteback(uint8_t self, uint64_t line_addr,
                                   uint64_t now);

  void RefreshCoreFastPaths();

  MachineConfig config_;
  std::unique_ptr<Device> dram_;
  std::unique_ptr<Device> target_;
  std::unique_ptr<SetAssocCache> llc_;

  std::vector<std::unique_ptr<Core>> cores_;

  // Demand-zero: a region's host pages are faulted in as the workload
  // first touches them, never filled up front.
  HostRegion dram_backing_;
  HostRegion target_backing_;
  uint64_t dram_brk_ = 0;
  uint64_t target_brk_ = 0;

  MachineStats hstats_;
  FunctionRegistry registry_;
  TraceSink* sink_ = nullptr;
  std::vector<PrestoreHook*> prestore_hooks_;
  AccessSampleHook* access_sampler_ = nullptr;
};

}  // namespace prestore

#endif  // SRC_SIM_MACHINE_H_
