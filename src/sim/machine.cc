#include "src/sim/machine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/util/hugepage.h"

namespace prestore {

Machine::Machine(const MachineConfig& config)
    : config_(config),
      dram_(MakeDevice(config.dram)),
      target_(MakeDevice(config.target)) {
  config_.l1.Validate("l1");
  config_.llc.Validate("llc");
  assert(config_.l1.line_size == config_.line_size &&
         config_.llc.line_size == config_.line_size &&
         "cache line sizes must match the machine line size");
  // The LLC is kNumShards independent sub-caches; global set g lives in
  // shard g % kNumShards. The per-shard SetAssocCache draws its sets'
  // replacement RNG from the shared global-set-order stream, so the sharded
  // LLC makes bit-identical decisions to the monolithic one it replaced.
  llc_shards_ = std::vector<LlcShard>(kNumShards);
  for (size_t s = 0; s < kNumShards; ++s) {
    llc_shards_[s].cache = std::make_unique<SetAssocCache>(
        config.llc, config.seed ^ 0x11c, s, kNumShards);
  }
  llc_global_sets_ = llc_shards_[0].cache->global_sets();
  llc_set_mask_ = (llc_global_sets_ & (llc_global_sets_ - 1)) == 0
                      ? llc_global_sets_ - 1
                      : 0;
  llc_set_mod_ = ModReciprocal(llc_global_sets_);
  for (uint32_t ls = config_.llc.line_size; ls > 1; ls >>= 1) {
    ++llc_line_shift_;
  }
  // Advise huge pages before the zero-fill touches the backing stores:
  // replay traces stride randomly through both regions, and on 4 KiB
  // pages nearly every host data access would pay a page walk.
  dram_backing_.reserve(config_.dram_region_bytes);
  AdviseHugePages(dram_backing_.data(), dram_backing_.capacity());
  dram_backing_.resize(config_.dram_region_bytes);
  target_backing_.reserve(config_.target_region_bytes);
  AdviseHugePages(target_backing_.data(), target_backing_.capacity());
  target_backing_.resize(config_.target_region_bytes);
  hstripes_ = std::make_unique<MachineStatStripe[]>(config_.num_cores);
  cores_.reserve(config_.num_cores);
  for (uint32_t i = 0; i < config_.num_cores; ++i) {
    cores_.push_back(
        std::make_unique<Core>(this, static_cast<uint8_t>(i), config_));
  }
}

Machine::~Machine() = default;

void Machine::RefreshCoreFastPaths() {
  for (auto& c : cores_) {
    c->RefreshFastPathFlags();
  }
}

SimAddr Machine::Alloc(uint64_t bytes, Region region, uint64_t align) {
  if (align == 0) {
    align = config_.line_size;
  }
  auto& brk = region == Region::kTarget ? target_brk_ : dram_brk_;
  const uint64_t limit = region == Region::kTarget ? target_backing_.size()
                                                   : dram_backing_.size();
  uint64_t cur = brk.load(std::memory_order_relaxed);
  uint64_t start = 0;
  do {
    start = (cur + align - 1) & ~(align - 1);
    if (start + bytes > limit) {
      std::fprintf(stderr, "simulated %s region exhausted (%llu + %llu > %llu)\n",
                   region == Region::kTarget ? "target" : "dram",
                   static_cast<unsigned long long>(start),
                   static_cast<unsigned long long>(bytes),
                   static_cast<unsigned long long>(limit));
      std::abort();
    }
  } while (!brk.compare_exchange_weak(cur, start + bytes,
                                      std::memory_order_relaxed));
  return (region == Region::kTarget ? kTargetBase : kDramBase) + start;
}

uint64_t Machine::GlobalTime() const {
  uint64_t t = 0;
  for (const auto& c : cores_) {
    t = std::max(t, c->now());
  }
  return t;
}

uint64_t Machine::ApproxGlobalTime() const {
  uint64_t t = 0;
  for (const auto& c : cores_) {
    t = std::max(t, c->PublishedNow());
  }
  return t;
}

uint64_t Machine::AlignCores() {
  const uint64_t t = GlobalTime();
  for (auto& c : cores_) {
    c->SetNow(t);
  }
  return t;
}

void Machine::ResetStats() {
  for (size_t i = 0; i < cores_.size(); ++i) {
    hstripes_[i].Reset();
  }
  if (shadow_hstats_ != nullptr) {
    shadow_hstats_->Reset();
  }
  dram_->ResetStats();
  target_->ResetStats();
  for (auto& c : cores_) {
    c->ResetStats();
  }
}

// Back-invalidates the victim's L1 sharers and accounts the eviction.
// Returns true when a dirty writeback is owed (the device work itself runs
// AFTER the caller drops the shard lock — see FinishEvictionWriteback — so
// the shard critical section never spans a device-meter reservation).
bool Machine::HandleLlcVictimLocked(uint8_t self,
                                    const SetAssocCache::Victim& victim) {
  if (!victim.valid) {
    return false;
  }
  Bump(self, &MachineStatStripe::llc_evictions);
  bool dirty = victim.dirty;
  uint64_t sharers = victim.sharers;
  while (sharers != 0) {
    const int s = __builtin_ctzll(sharers);
    sharers &= sharers - 1;
    Core& c = *cores_[s];
    OptionalLockGuard l1_lock(c.l1_mu(), exclusive_execution());
    CacheLineMeta was;
    if (c.l1().Remove(victim.line_addr, &was)) {
      Bump(self, &MachineStatStripe::back_invalidations);
      if (was.dirty) {
        dirty = true;
      }
    }
  }
  return dirty;
}

uint64_t Machine::FinishEvictionWriteback(uint8_t self, uint64_t line_addr,
                                          uint64_t now) {
  // Eviction writeback: off the evicting core's critical path while its
  // bounded writeback queue has room; once the device falls behind, the
  // evicting access stalls (the backpressure behind Figure 3).
  const uint64_t acceptance =
      DeviceFor(line_addr).Write(line_addr, config_.line_size, now);
  const uint64_t proceed = cores_[self]->NoteEvictionWriteback(acceptance, now);
  if (proceed > now) {
    Bump(self, &MachineStatStripe::wbq_stall_cycles, proceed - now);
  }
  return proceed;
}

namespace {

// Streamed (sequential) misses hide most of the device access time behind
// the previous transfers, standing in for hardware stride prefetching: the
// prefetcher issued this fetch several lines ago, so both the device
// latency and most of its queueing are already absorbed. The device meter
// still carries the full work (bandwidth is conserved); only the streaming
// requester's experienced wait shrinks.
uint64_t StreamDiscount(uint64_t start, uint64_t completion,
                        uint32_t read_latency, bool streamed) {
  if (!streamed || completion <= start) {
    return completion;
  }
  const uint64_t total = completion - start;
  const uint64_t floor = read_latency / 8 + 1;
  const uint64_t discounted = total / 4 > floor ? total / 4 : floor;
  return discounted < total ? start + discounted : completion;
}

// Directory update for the access mode; the final step of every LLC access
// once the coherence protocol has run, under the line's shard lock.
void ApplyAccessModeLocked(CacheLineMeta* meta, uint8_t self,
                           Machine::AccessMode mode, bool incoming_dirty) {
  switch (mode) {
    case Machine::AccessMode::kRead:
      meta->sharers |= 1ULL << self;
      break;
    case Machine::AccessMode::kWrite:
      meta->sharers = 1ULL << self;
      meta->owner = self;
      break;
    case Machine::AccessMode::kDemote:
      meta->sharers &= ~(1ULL << self);
      meta->owner = kNoOwner;
      meta->dirty = meta->dirty || incoming_dirty;
      break;
  }
}

}  // namespace

uint64_t Machine::LlcHitLocked(uint8_t self, uint64_t line_addr,
                               AccessMode mode, bool incoming_dirty,
                               Device& dev, bool far, CacheLineMeta* meta,
                               uint64_t t) {
  Bump(self, &MachineStatStripe::llc_hits);
  t += config_.llc.hit_latency;
  const uint8_t prev_owner = meta->owner;
  if (prev_owner != kNoOwner && prev_owner != self) {
    // Another core's L1 holds the line Modified: intervene.
    Bump(self, &MachineStatStripe::interventions);
    t += config_.snoop_latency;
    Core& owner = *cores_[prev_owner];
    OptionalLockGuard l1_lock(owner.l1_mu(), exclusive_execution());
    CacheLineMeta* ol = owner.l1().Probe(line_addr);
    if (mode == AccessMode::kRead) {
      if (ol != nullptr) {
        ol->dirty = false;
        ol->exclusive = false;
      }
    } else {
      if (ol != nullptr) {
        owner.l1().Remove(line_addr);
      }
      meta->sharers &= ~(1ULL << prev_owner);
    }
    meta->dirty = true;  // modified data is now at the LLC level
    meta->owner = kNoOwner;
  }
  if (mode != AccessMode::kRead) {
    uint64_t others = meta->sharers & ~(1ULL << self);
    if (others != 0) {
      t += config_.snoop_latency;
      while (others != 0) {
        const int s = __builtin_ctzll(others);
        others &= others - 1;
        Core& c = *cores_[s];
        OptionalLockGuard l1_lock(c.l1_mu(), exclusive_execution());
        c.l1().Remove(line_addr);
        meta->sharers &= ~(1ULL << s);
      }
    }
    if (far && prev_owner != self) {
      // Line-state upgrade: the directory lives on the device (§4.2).
      t = dev.DirectoryAccess(t);
    }
  }
  ApplyAccessModeLocked(meta, self, mode, incoming_dirty);
  return t;
}

uint64_t Machine::LlcAccess(uint8_t self, uint64_t line_addr, AccessMode mode,
                            uint64_t start, bool streamed,
                            bool incoming_dirty) {
  Device& dev = DeviceFor(line_addr);
  const bool far = dev.config().kind == DeviceKind::kFarMemory;
  uint64_t t = start;

  LlcShard& shard = ShardFor(line_addr);
  {
    OptionalLockGuard shard_lock(shard.mu, exclusive_execution());
    CacheLineMeta* meta = shard.cache->Touch(line_addr);
    if (meta != nullptr) {
      return LlcHitLocked(self, line_addr, mode, incoming_dirty, dev, far,
                          meta, t);
    }
  }

  // Probable miss. The device work — (for writes to far memory) directory
  // update, then the line read — runs with the shard UNLOCKED: it only
  // touches the device's own synchronization, and keeping it out of the
  // shard critical section keeps other cores' accesses to the shard's sets
  // moving. On a single driving thread the instruction order is exactly the
  // pre-split order, so sequential replays are bit-identical. Hit/miss
  // accounting waits until the re-probe below settles which one this is.
  if (mode != AccessMode::kRead && far) {
    t = dev.DirectoryAccess(t);
  }
  const uint64_t read_done = dev.Read(line_addr, config_.line_size, t);
  t = StreamDiscount(t, read_done, dev.config().read_latency, streamed);

  bool wb_owed = false;
  uint64_t victim_line = 0;
  {
    OptionalLockGuard shard_lock(shard.mu, exclusive_execution());
    SetAssocCache& llc = *shard.cache;
    // Re-probe: while the shard was unlocked another core may have filled
    // the line (concurrent runs only — a failed Touch mutates nothing, so a
    // sequential replay re-misses with untouched state). A refilled line may
    // carry a new Modified owner or new sharers, so the access must run the
    // full hit protocol, exactly as if the first probe had hit; it is
    // counted as a hit. The speculative device read (and, for far writes,
    // the directory access) already reserved its meter work and stays in
    // `t` — a concurrent-mode-only latency/meter pessimism.
    CacheLineMeta* meta = llc.Touch(line_addr);
    if (meta != nullptr) {
      return LlcHitLocked(self, line_addr, mode, incoming_dirty, dev, far,
                          meta, t);
    }
    Bump(self, &MachineStatStripe::llc_misses);
    if (mode != AccessMode::kRead && far) {
      Bump(self, &MachineStatStripe::dir_upgrades);
    }
    SetAssocCache::Victim victim = llc.Insert(line_addr, false, &meta);
    if (HandleLlcVictimLocked(self, victim)) {
      wb_owed = true;
      victim_line = victim.line_addr;
    }
    ApplyAccessModeLocked(meta, self, mode, incoming_dirty);
  }
  if (wb_owed) {
    t = std::max(t, FinishEvictionWriteback(self, victim_line, start));
  }
  return t;
}

uint64_t Machine::PublishLine(uint8_t self, uint64_t line_addr,
                              uint64_t start) {
  Core& core = *cores_[self];
  {
    OptionalLockGuard l1_lock(core.l1_mu(), exclusive_execution());
    CacheLineMeta* meta = core.l1().Touch(line_addr);
    if (meta != nullptr && meta->exclusive) {
      meta->dirty = true;
      return start + 1;
    }
  }
  const uint64_t t = LlcAccess(self, line_addr, AccessMode::kWrite, start);
  core.FillL1(line_addr, /*exclusive=*/true, /*dirty=*/true);
  return t;
}

uint64_t Machine::PublishLineDemote(uint8_t self, uint64_t line_addr,
                                    uint64_t start) {
  Core& core = *cores_[self];
  bool dirty = true;  // demoted data from the store buffer is modified
  {
    OptionalLockGuard l1_lock(core.l1_mu(), exclusive_execution());
    CacheLineMeta was;
    if (core.l1().Remove(line_addr, &was)) {
      dirty = was.dirty;
    }
  }
  return LlcAccess(self, line_addr, AccessMode::kDemote, start,
                   /*streamed=*/false, /*incoming_dirty=*/dirty);
}

uint64_t Machine::CleanLine(uint8_t self, uint64_t line_addr, uint64_t start) {
  Core& core = *cores_[self];
  bool dirty = false;
  {
    OptionalLockGuard l1_lock(core.l1_mu(), exclusive_execution());
    CacheLineMeta* meta = core.l1().Probe(line_addr);
    if (meta != nullptr && meta->dirty) {
      meta->dirty = false;
      dirty = true;
    }
  }
  {
    LlcShard& shard = ShardFor(line_addr);
    OptionalLockGuard shard_lock(shard.mu, exclusive_execution());
    CacheLineMeta* meta = shard.cache->Probe(line_addr);
    if (meta != nullptr) {
      if (meta->owner != kNoOwner && meta->owner != self) {
        Core& owner = *cores_[meta->owner];
        OptionalLockGuard l1_lock(owner.l1_mu(), exclusive_execution());
        CacheLineMeta* ol = owner.l1().Probe(line_addr);
        if (ol != nullptr && ol->dirty) {
          ol->dirty = false;
          dirty = true;
        }
      }
      if (meta->dirty) {
        meta->dirty = false;
        dirty = true;
      }
    }
  }
  if (!dirty) {
    return start;  // cleaning a clean line costs (almost) nothing (§5)
  }
  return DeviceFor(line_addr).Write(line_addr, config_.line_size, start);
}

void Machine::InvalidateLine(uint8_t self, uint64_t line_addr) {
  {
    LlcShard& shard = ShardFor(line_addr);
    OptionalLockGuard shard_lock(shard.mu, exclusive_execution());
    CacheLineMeta* meta = shard.cache->Probe(line_addr);
    if (meta != nullptr) {
      uint64_t sharers = meta->sharers;
      while (sharers != 0) {
        const int s = __builtin_ctzll(sharers);
        sharers &= sharers - 1;
        Core& c = *cores_[s];
        OptionalLockGuard l1_lock(c.l1_mu(), exclusive_execution());
        c.l1().Remove(line_addr);
      }
      shard.cache->Remove(line_addr);
    }
  }
  Core& core = *cores_[self];
  OptionalLockGuard l1_lock(core.l1_mu(), exclusive_execution());
  core.l1().Remove(line_addr);
}

std::vector<uint64_t> Machine::LlcValidLines() const {
  std::vector<uint64_t> lines;
  lines.reserve(llc_global_sets_ * config_.llc.ways);
  for (const LlcShard& shard : llc_shards_) {
    for (uint64_t line : shard.cache->ValidLines()) {
      lines.push_back(line);
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

void Machine::FlushAll() {
  for (auto& c : cores_) {
    c->Fence();
  }
  const uint64_t now = GlobalTime();
  // Collect the dirty lines per device, in walk order, and issue each
  // device's lines as one write train (Device::WriteTrain — the batched
  // clean-sweep charging path). Same-device write order is preserved
  // exactly — the L1 walks then the GLOBAL-set-order, way-minor LLC walk,
  // the order the per-line code issued — because PMEM write-combining
  // (XPBuffer LRU and coalescing) makes media-byte counters depend on it.
  // Splitting by device reorders only across devices, which commutes:
  // the two devices share no meter, buffer, or stats state, and every
  // write is issued at the same single timestamp `now`.
  std::vector<uint64_t> dram_lines;
  std::vector<uint64_t> target_lines;
  auto collect = [&](uint64_t line) {
    (line >= kTargetBase ? target_lines : dram_lines).push_back(line);
  };
  for (auto& c : cores_) {
    OptionalLockGuard l1_lock(c->l1_mu(), exclusive_execution());
    for (uint64_t line : c->l1().ValidLines()) {
      CacheLineMeta* meta = c->l1().Probe(line);
      if (meta->dirty) {
        meta->dirty = false;
        collect(line);
      }
    }
  }
  for (uint64_t g = 0; g < llc_global_sets_; ++g) {
    LlcShard& shard = llc_shards_[g & (kNumShards - 1)];
    OptionalLockGuard shard_lock(shard.mu, exclusive_execution());
    const uint64_t local = g / kNumShards;
    if (local >= shard.cache->num_sets()) {
      continue;
    }
    CacheLineMeta* base = shard.cache->SetData(local);
    for (uint32_t w = 0; w < config_.llc.ways; ++w) {
      CacheLineMeta& meta = base[w];
      if (meta.valid && meta.dirty) {
        meta.dirty = false;
        collect(meta.line_addr);
      }
    }
  }
  dram_->WriteTrain(dram_lines.data(), dram_lines.size(), config_.line_size,
                    now);
  target_->WriteTrain(target_lines.data(), target_lines.size(),
                      config_.line_size, now);
  dram_->Drain();
  target_->Drain();
}

}  // namespace prestore
