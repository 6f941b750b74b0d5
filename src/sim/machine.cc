#include "src/sim/machine.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace prestore {

namespace {

const MachineConfig& Validated(const MachineConfig& config) {
  config.Validate();
  return config;
}

}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(Validated(config)),
      dram_(MakeDevice(config.dram)),
      target_(MakeDevice(config.target)),
      llc_(std::make_unique<SetAssocCache>(config.llc, config.seed ^ 0x11c)),
      dram_backing_(config_.dram_region_bytes),
      target_backing_(config_.target_region_bytes) {
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
  if ((align & (align - 1)) != 0) {
    throw std::invalid_argument("Machine::Alloc: align must be a power of two, "
                                "got " + std::to_string(align));
  }
  uint64_t& brk = region == Region::kTarget ? target_brk_ : dram_brk_;
  const uint64_t limit = region == Region::kTarget ? target_backing_.size()
                                                   : dram_backing_.size();
  // The round-up cannot wrap (brk <= limit, a host mapping's size, and
  // align <= 2^63); comparing `bytes` with the space left keeps a huge
  // request from wrapping `start + bytes` past the check.
  const uint64_t start = (brk + align - 1) & ~(align - 1);
  if (start > limit || bytes > limit - start) {
    std::fprintf(stderr, "simulated %s region exhausted (%llu + %llu > %llu)\n",
                 region == Region::kTarget ? "target" : "dram",
                 static_cast<unsigned long long>(start),
                 static_cast<unsigned long long>(bytes),
                 static_cast<unsigned long long>(limit));
    std::abort();
  }
  brk = start + bytes;
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
  hstats_ = MachineStats{};
  dram_->ResetStats();
  target_->ResetStats();
  for (auto& c : cores_) {
    c->ResetStats();
  }
}

bool Machine::HandleLlcVictim(const SetAssocCache::Victim& victim) {
  if (!victim.valid) {
    return false;
  }
  ++hstats_.llc_evictions;
  bool dirty = victim.dirty;
  uint64_t sharers = victim.sharers;
  while (sharers != 0) {
    const int s = __builtin_ctzll(sharers);
    sharers &= sharers - 1;
    CacheLineMeta was;
    if (cores_[s]->l1().Remove(victim.line_addr, &was)) {
      ++hstats_.back_invalidations;
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
    hstats_.wbq_stall_cycles += proceed - now;
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
// once the coherence protocol has run.
void ApplyAccessMode(CacheLineMeta* meta, uint8_t self,
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

uint64_t Machine::LlcHit(uint8_t self, uint64_t line_addr, AccessMode mode,
                         bool incoming_dirty, Device& dev, bool far,
                         CacheLineMeta* meta, uint64_t t) {
  ++hstats_.llc_hits;
  t += config_.llc.hit_latency;
  const uint8_t prev_owner = meta->owner;
  if (prev_owner != kNoOwner && prev_owner != self) {
    // Another core's L1 holds the line Modified: intervene.
    ++hstats_.interventions;
    t += config_.snoop_latency;
    Core& owner = *cores_[prev_owner];
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
        cores_[s]->l1().Remove(line_addr);
        meta->sharers &= ~(1ULL << s);
      }
    }
    if (far && prev_owner != self) {
      // Line-state upgrade: the directory lives on the device (§4.2).
      t = dev.DirectoryAccess(t);
    }
  }
  ApplyAccessMode(meta, self, mode, incoming_dirty);
  return t;
}

uint64_t Machine::LlcAccess(uint8_t self, uint64_t line_addr, AccessMode mode,
                            uint64_t start, bool streamed,
                            bool incoming_dirty) {
  Device& dev = DeviceFor(line_addr);
  const bool far = dev.config().kind == DeviceKind::kFarMemory;
  CacheLineMeta* meta = llc_->Touch(line_addr);
  if (meta != nullptr) {
    return LlcHit(self, line_addr, mode, incoming_dirty, dev, far, meta,
                  start);
  }
  // Miss: (for writes to far memory) directory update, then the line read,
  // then the fill. A failed Touch mutates nothing, so the insert sees the
  // set exactly as the probe left it.
  ++hstats_.llc_misses;
  uint64_t t = start;
  if (mode != AccessMode::kRead && far) {
    ++hstats_.dir_upgrades;
    t = dev.DirectoryAccess(t);
  }
  const uint64_t read_done = dev.Read(line_addr, config_.line_size, t);
  t = StreamDiscount(t, read_done, dev.config().read_latency, streamed);
  const SetAssocCache::Victim victim = llc_->Insert(line_addr, false, &meta);
  const bool wb_owed = HandleLlcVictim(victim);
  ApplyAccessMode(meta, self, mode, incoming_dirty);
  if (wb_owed) {
    t = std::max(t, FinishEvictionWriteback(self, victim.line_addr, start));
  }
  return t;
}

uint64_t Machine::PublishLine(uint8_t self, uint64_t line_addr,
                              uint64_t start) {
  Core& core = *cores_[self];
  CacheLineMeta* meta = core.l1().Touch(line_addr);
  if (meta != nullptr && meta->exclusive) {
    meta->dirty = true;
    return start + 1;
  }
  const uint64_t t = LlcAccess(self, line_addr, AccessMode::kWrite, start);
  core.FillL1(line_addr, /*exclusive=*/true, /*dirty=*/true);
  return t;
}

uint64_t Machine::PublishLineDemote(uint8_t self, uint64_t line_addr,
                                    uint64_t start) {
  Core& core = *cores_[self];
  bool dirty = true;  // demoted data from the store buffer is modified
  CacheLineMeta was;
  if (core.l1().Remove(line_addr, &was)) {
    dirty = was.dirty;
  }
  return LlcAccess(self, line_addr, AccessMode::kDemote, start,
                   /*streamed=*/false, /*incoming_dirty=*/dirty);
}

uint64_t Machine::CleanLine(uint8_t self, uint64_t line_addr, uint64_t start) {
  bool dirty = false;
  CacheLineMeta* mine = cores_[self]->l1().Probe(line_addr);
  if (mine != nullptr && mine->dirty) {
    mine->dirty = false;
    dirty = true;
  }
  CacheLineMeta* meta = llc_->Probe(line_addr);
  if (meta != nullptr) {
    if (meta->owner != kNoOwner && meta->owner != self) {
      CacheLineMeta* ol = cores_[meta->owner]->l1().Probe(line_addr);
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
  if (!dirty) {
    return start;  // cleaning a clean line costs (almost) nothing (§5)
  }
  return DeviceFor(line_addr).Write(line_addr, config_.line_size, start);
}

void Machine::InvalidateLine(uint8_t self, uint64_t line_addr) {
  CacheLineMeta* meta = llc_->Probe(line_addr);
  if (meta != nullptr) {
    uint64_t sharers = meta->sharers;
    while (sharers != 0) {
      const int s = __builtin_ctzll(sharers);
      sharers &= sharers - 1;
      cores_[s]->l1().Remove(line_addr);
    }
    llc_->Remove(line_addr);
  }
  cores_[self]->l1().Remove(line_addr);
}

std::vector<uint64_t> Machine::LlcValidLines() const {
  std::vector<uint64_t> lines = llc_->ValidLines();
  std::sort(lines.begin(), lines.end());
  return lines;
}

void Machine::FlushAll() {
  for (auto& c : cores_) {
    c->Fence();
  }
  const uint64_t now = GlobalTime();
  // Write back every dirty line at one timestamp, in walk order: the L1s,
  // then the LLC set by set, way by way. The order is load-bearing because
  // PMEM write-combining (XPBuffer LRU and coalescing) makes media-byte
  // counters depend on it.
  const auto write_back = [&](uint64_t line) {
    DeviceFor(line).Write(line, config_.line_size, now);
  };
  for (auto& c : cores_) {
    for (uint64_t line : c->l1().ValidLines()) {
      CacheLineMeta* meta = c->l1().Probe(line);
      if (meta->dirty) {
        meta->dirty = false;
        write_back(line);
      }
    }
  }
  for (uint64_t set = 0; set < llc_->num_sets(); ++set) {
    CacheLineMeta* base = llc_->SetData(set);
    for (uint32_t w = 0; w < config_.llc.ways; ++w) {
      CacheLineMeta& meta = base[w];
      if (meta.valid && meta.dirty) {
        meta.dirty = false;
        write_back(meta.line_addr);
      }
    }
  }
  dram_->Drain();
  target_->Drain();
}

}  // namespace prestore
