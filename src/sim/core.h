// A simulated hardware thread (core): the execution context workloads run on.
//
// Functional-first, timing-directed simulation: data moves to/from backing
// host memory immediately; the cache/store-buffer state machines track where
// each line *would* be and charge cycles accordingly. Each core keeps a
// local clock and the shared devices keep skew-tolerant reservations, so
// several cores can run at once: each one's work is a fiber on the
// deterministic scheduler (scheduler.h), which ends the core's slice at the
// end of any op that leaves its clock at or past the round deadline.
#ifndef SRC_SIM_CORE_H_
#define SRC_SIM_CORE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/prestore.h"
#include "src/sim/cache.h"
#include "src/sim/config.h"
#include "src/sim/hooks.h"
#include "src/trace/trace.h"

namespace prestore {

class Machine;

using SimAddr = uint64_t;

struct CoreStats {
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t l1_hits = 0;
  uint64_t l1_misses = 0;
  uint64_t sb_forwards = 0;
  uint64_t fences = 0;
  uint64_t fence_stall_cycles = 0;
  uint64_t atomics = 0;
  uint64_t prestores_demote = 0;
  uint64_t prestores_clean = 0;
  // Hints suppressed by an installed PrestoreHook (governor backoff or
  // injected hint-drop faults). Suppressed hints issue no instruction.
  uint64_t prestores_suppressed = 0;
  uint64_t nt_lines = 0;
  uint64_t sb_capacity_drains = 0;
  // Cycle attribution (where the core's clock advanced).
  uint64_t cycles_bg_wait = 0;    // background-op window full
  uint64_t cycles_wc_wait = 0;    // write-combining buffer full
  uint64_t cycles_wb_pending = 0; // store hit a line with in-flight writeback
  uint64_t cycles_load_miss = 0;  // synchronous load misses
  uint64_t publish_latency_sum = 0;  // sum of async publication latencies
  uint64_t publishes = 0;
};

// Pre-interned function annotation (see FunctionRegistry).
struct FuncToken {
  uint32_t id = kInvalidFunc;
};

class Core {
 public:
  Core(Machine* machine, uint8_t id, const MachineConfig& config);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  uint8_t id() const { return id_; }
  uint64_t now() const { return now_; }
  uint64_t icount() const { return icount_; }
  const CoreStats& stats() const { return stats_; }
  Machine& machine() { return *machine_; }

  // ---- Data operations (functional + timed) ----

  uint64_t LoadU64(SimAddr addr);
  uint32_t LoadU32(SimAddr addr);
  void StoreU64(SimAddr addr, uint64_t value);
  void StoreU32(SimAddr addr, uint32_t value);
  double LoadF64(SimAddr addr);
  void StoreF64(SimAddr addr, double value);

  // Word runs: n 8-byte words at addr, addr + 8, ... with exactly the
  // simulated effect of n LoadU64 / StoreU64 / StoreNtU64 calls in address
  // order: clock, icount, stats, cache and store-buffer state, device
  // meters, slice ends and host memory. A line's follow-on words are
  // charged in closed form from the state its first word left (DESIGN.md
  // §10). Word i of a load run lands in out[i].
  void LoadU64s(SimAddr src, uint64_t* out, size_t n);
  void StoreU64s(SimAddr dst, const uint64_t* words, size_t n);
  void StoreNtU64s(SimAddr dst, const uint64_t* words, size_t n);

  void MemCopyToSim(SimAddr dst, const void* src, size_t size);
  void MemCopyFromSim(void* dst, SimAddr src, size_t size);
  void MemCopySimToSim(SimAddr dst, SimAddr src, size_t size);
  void MemSet(SimAddr dst, uint8_t byte, size_t size);

  // Plain ALU work: n instructions, n cycles.
  void Execute(uint64_t n) {
    icount_ += n;
    now_ += n;
    MaybeEndSlice();
  }

  // Spin-wait pause. A spinning core must not race ahead of the cores doing
  // real work (its local clock would poison shared-device reservations), so
  // the pause advances the local clock only up to the fastest *published*
  // core time; a core already there ends its slice instead.
  void SpinPause(uint64_t cycles = 30);

  // Ends this core's scheduler slice without advancing its clock: the call
  // every host-side wait for another core's progress makes (scheduler.h).
  // A no-op outside a scheduled run.
  void EndSlice();

  // This core's clock as of its last ordering operation (fence, atomic,
  // spin): the value SpinPause's catch-up target is built from.
  uint64_t PublishedNow() const { return published_now_; }

  // Tracks an eviction writeback this core's access triggered. The per-core
  // queue is bounded: when the device falls behind, the evicting access
  // stalls (returns the time it may proceed; == start when the queue keeps
  // up). Per-core so that clock skew between cores cannot masquerade as
  // queueing.
  uint64_t NoteEvictionWriteback(uint64_t acceptance, uint64_t start) {
    while (ewb_size_ != 0 && ewb_ring_[ewb_head_ & kEwbRingMask] <= start) {
      ++ewb_head_;
      --ewb_size_;
    }
    ewb_ring_[(ewb_head_ + ewb_size_) & kEwbRingMask] = acceptance;
    ++ewb_size_;
    if (ewb_size_ > kEvictionWbDepth) {
      const uint64_t wait = ewb_ring_[ewb_head_ & kEwbRingMask];
      ++ewb_head_;
      --ewb_size_;
      return wait > start ? wait : start;
    }
    return start;
  }

  static constexpr size_t kEvictionWbDepth = 16;

  // ---- Ordering operations ----

  // Full memory fence: publishes all private stores, waits for outstanding
  // pre-stores and write-combining traffic (paper §4.2).
  void Fence();

  // Atomics have fence semantics (§4.2: "atomic instructions that force the
  // CPU to order memory accesses").
  bool CasU64(SimAddr addr, uint64_t& expected, uint64_t desired);
  uint64_t FetchAddU64(SimAddr addr, uint64_t delta);
  uint64_t AtomicLoadU64(SimAddr addr);   // acquire: no store drain
  void AtomicStoreU64(SimAddr addr, uint64_t value);  // release: drains stores

  // ---- Pre-stores (the paper's contribution, §2) ----

  // Non-blocking hint covering [addr, addr+size). kDemote moves the data out
  // of private buffers / L1 down to the shared cache; kClean additionally
  // writes dirty data back to memory. Data stays cached in both cases.
  void Prestore(SimAddr addr, size_t size, PrestoreOp op);

  // Non-temporal ("skip the cache") store: data goes straight to memory via
  // the write-combining buffer and is not allocated in the caches.
  void StoreNt(SimAddr dst, const void* src, size_t size);
  void StoreNtU64(SimAddr dst, uint64_t value);

  // ---- Annotation (symbolization stand-in for DirtBuster) ----

  void PushFunc(FuncToken token);
  void PopFunc();
  uint32_t CurrentFunc() const {
    return fstack_.empty() ? kInvalidFunc : fstack_.back();
  }
  uint32_t CurrentChain() const { return cur_chain_; }

  void ResetStats() { stats_ = CoreStats{}; }
  void SetNow(uint64_t t) {
    now_ = t;
    published_now_ = t;
  }

  // Internal: used by Machine for cross-core coherence actions.
  SetAssocCache& l1() { return l1_; }

  // Re-reads the machine's trace-sink and pre-store-hook registrations into
  // the core-local fast-path fields below. Machine calls this whenever a
  // sink or hook is (un)installed.
  void RefreshFastPathFlags();

 private:
  friend class Machine;
  friend class SimScheduler;

  // Round deadline of the running scheduler (UINT64_MAX outside a run).
  uint64_t slice_deadline_ = UINT64_MAX;
  void MaybeEndSlice() {
    if (now_ >= slice_deadline_) {
      EndSlice();
    }
  }

  // Per-line timing paths. TimedLines and NtLines are TimedAccess and
  // StoreNt without the slice check that ends every op.
  void LineLoad(uint64_t line_addr);
  void LineStore(uint64_t line_addr);
  void TimedLines(SimAddr addr, size_t size, bool is_store);
  void TimedAccess(SimAddr addr, size_t size, bool is_store) {
    TimedLines(addr, size, is_store);
    MaybeEndSlice();
  }
  void NtLines(SimAddr dst, size_t size);

  // The word runs' shared walk: first(i, addr) runs word i as its
  // single-word op (without the slice check); follow(i, line, left) then
  // charges up to `left` follow-on words of that line from word i and
  // returns how many it charged. The closed form applies only when nothing
  // observes single accesses (trace sink, access sampler, pre-store hook)
  // and the words are aligned, so none straddles a line; otherwise every
  // word is first(i, addr) and the slice check, i.e. its single-word op.
  template <typename First, typename Follow>
  void WordRun(SimAddr addr, size_t n, First first, Follow follow);
  // How many of the next `left` ops, `cost` cycles each, run in this slice:
  // up to and including the first whose clock reaches the deadline (call
  // only while now_ < slice_deadline_).
  size_t OpsInSlice(uint64_t cost, size_t left) const {
    if (cost == 0 || slice_deadline_ == UINT64_MAX) {
      return left;
    }
    return std::min<uint64_t>(left, (slice_deadline_ - now_ - 1) / cost + 1);
  }

  // Store-buffer handling.
  bool SbContains(uint64_t line_addr) const;
  void SbInsert(uint64_t line_addr);
  void SbRemove(uint64_t line_addr);
  uint64_t DrainSbAll(uint64_t start);  // returns completion

  // Background-op / write-combining bookkeeping.
  struct WcEntry {
    uint64_t line_addr;
    uint64_t completion;
  };
  void PushBg(uint64_t completion);
  void PushWc(uint64_t line_addr, uint64_t completion);
  uint64_t WaitAll(std::deque<uint64_t>& q, uint64_t t);
  uint64_t WaitAllWc(uint64_t t);
  // A store to a line with an in-flight writeback must wait for it (the line
  // is on its way to memory and has to be re-acquired) — the §5 Listing-3
  // pitfall cost. Returns true when an in-flight writeback was found.
  bool WaitPendingWriteback(uint64_t line_addr);

  // L1 fill with victim handling.
  void FillL1(uint64_t line_addr, bool exclusive, bool dirty);

  // Per-op trace emission. The unhooked case must cost one predicted
  // branch, so the sink pointer is cached core-locally (refreshed by
  // RefreshFastPathFlags) instead of being chased through the machine on
  // every memory operation.
  void Emit(TraceKind kind, SimAddr addr, uint32_t size) {
    if (sink_fast_ == nullptr) {
      return;
    }
    sink_fast_->Record(TraceRecord{kind, id_, size, addr, icount_,
                                   CurrentFunc(), cur_chain_});
  }
  void PublishClock() { published_now_ = now_; }

  Machine* machine_;
  uint8_t id_;
  const MachineConfig& config_;

  // Cached fast-path state (see RefreshFastPathFlags).
  TraceSink* sink_fast_ = nullptr;
  bool has_hooks_ = false;
  bool HasHooks() const { return has_hooks_; }

  // Sampled-access observation (Machine::SetAccessSampleHook). The period
  // is cached core-locally so the unobserved per-line cost is one plain
  // load + predicted branch (period == 0); the countdown survives refreshes
  // that do not change the installation, so unrelated SetTraceSink calls
  // cannot perturb the deterministic sample schedule.
  AccessSampleHook* sampler_fast_ = nullptr;
  uint32_t sample_period_ = 0;
  uint32_t sample_countdown_ = 0;
  void MaybeSampleAccess(uint64_t line_addr, bool is_store) {
    if (sample_period_ == 0 || --sample_countdown_ != 0) {
      return;
    }
    sample_countdown_ = sample_period_;
    if (sampler_fast_ != nullptr) {
      sampler_fast_->OnSampledAccess(id_, line_addr, is_store, now_);
    }
  }

  uint64_t now_ = 0;
  uint64_t icount_ = 0;
  // now_ as of the last ordering operation (see PublishedNow).
  uint64_t published_now_ = 0;

  SetAssocCache l1_;

  std::deque<uint64_t> sb_;  // private store buffer: line addresses, FIFO
  std::deque<uint64_t> bg_;  // completion times of async publications
  std::deque<WcEntry> wc_;   // in-flight clean / NT writebacks

  // Eviction-writeback acceptance times: fixed power-of-two ring (capacity
  // kEwbRingSize > kEvictionWbDepth + 1, the max occupancy right after the
  // overflow push). Entries live in [ewb_head_, ewb_head_ + ewb_size_).
  static constexpr uint32_t kEwbRingSize = 32;
  static constexpr uint32_t kEwbRingMask = kEwbRingSize - 1;
  uint64_t ewb_ring_[kEwbRingSize] = {};
  uint32_t ewb_head_ = 0;
  uint32_t ewb_size_ = 0;

  // Exact counting filter over wc_'s line addresses: wc_filter_[WcSlot(a)]
  // is the number of wc_ entries whose line hashes to that slot, updated at
  // every wc_ push/erase/clear. A zero slot proves the line has NO entry
  // (no false negatives), letting WaitPendingWriteback — run on every
  // store and every load miss, almost always with nothing in flight — skip
  // the deque scan. A nonzero slot falls back to the precise scan.
  // Host-side accelerator only: simulated results are unchanged.
  static uint32_t WcSlot(uint64_t line_addr) {
    return static_cast<uint32_t>((line_addr * 0x9e3779b97f4a7c15ULL) >> 56);
  }
  uint16_t wc_filter_[256] = {};

  // Streaming detection (hardware-prefetch stand-in): a load miss adjacent
  // to any tracked stream gets the latency discount. Real prefetchers track
  // many concurrent streams; 8 covers the multi-array kernels here.
  static constexpr size_t kMissStreams = 8;
  uint64_t miss_streams_[kMissStreams] = {};
  size_t next_stream_ = 0;

  // Lines recently written with non-temporal stores: reading one back
  // interferes with the write-combining path and is never prefetched, so it
  // pays the full memory latency (§7.2.1's skip penalty).
  static constexpr size_t kRecentNt = 256;
  uint64_t recent_nt_[kRecentNt] = {};
  size_t next_nt_ = 0;
  // Set once this core issues its first non-temporal store; until then no
  // line counts as recently NT-written.
  bool nt_used_ = false;
  // Exact counting filter over recent_nt_, as wc_filter_ is over wc_: a
  // zero slot proves the line is not in the ring, and a nonzero slot falls
  // back to the scan. The ring starts as kRecentNt zero entries, and line 0
  // hashes to slot 0. Host-side accelerator only.
  static constexpr uint32_t kNtFilterBits = 12;
  static uint32_t NtSlot(uint64_t line_addr) {
    return static_cast<uint32_t>((line_addr * 0x9e3779b97f4a7c15ULL) >>
                                 (64 - kNtFilterBits));
  }
  uint16_t nt_filter_[1u << kNtFilterBits] = {kRecentNt};
  bool RecentlyNtWritten(uint64_t line_addr) const {
    if (!nt_used_ || nt_filter_[NtSlot(line_addr)] == 0) {
      return false;
    }
    for (uint64_t l : recent_nt_) {
      if (l == line_addr) {
        return true;
      }
    }
    return false;
  }

  // Lines whose dirty data a clean pre-store wrote back (only maintained
  // while PrestoreHooks are installed): a store to one of them while the
  // line is still LLC-resident means the writeback was wasted — the
  // Listing-3 signal the governor feeds on. (Rewrites of long-evicted lines
  // are benign: their writeback was owed anyway.) Each clean is reported at
  // most once. Direct-mapped by line address, lazily allocated (512 KiB per
  // core, but only on hook-observed runs).
  static constexpr size_t kCleanTableSize = 1 << 16;
  std::vector<uint64_t> recent_clean_;
  void NoteCleanedLine(uint64_t line_addr);
  void NotifyRewriteIfCleaned(uint64_t line_addr);

  CoreStats stats_;

  std::vector<uint32_t> fstack_;
  uint32_t cur_chain_ = kInvalidChain;
  std::unordered_map<uint64_t, uint32_t> chain_cache_;
  std::vector<uint32_t> chain_stack_;  // parallel chain ids for O(1) pop
};

// RAII function annotation. Mirrors the symbol information DirtBuster gets
// from perf/PIN on real binaries.
class ScopedFunction {
 public:
  ScopedFunction(Core& core, FuncToken token) : core_(core) {
    core_.PushFunc(token);
  }
  ~ScopedFunction() { core_.PopFunc(); }

  ScopedFunction(const ScopedFunction&) = delete;
  ScopedFunction& operator=(const ScopedFunction&) = delete;

 private:
  Core& core_;
};

}  // namespace prestore

#endif  // SRC_SIM_CORE_H_
