#include "src/sim/core.h"

#include <algorithm>
#include <cassert>

#include "src/sim/invariant.h"
#include "src/sim/machine.h"
#include "src/sim/scheduler.h"

namespace prestore {

namespace {
constexpr uint64_t kFenceIssueCost = 5;
constexpr uint64_t kStoreIssueCost = 1;
}  // namespace

Core::Core(Machine* machine, uint8_t id, const MachineConfig& config)
    : machine_(machine), id_(id), config_(config), l1_(config.l1, config.seed ^ (0x17ULL * id + 3)) {}

void Core::RefreshFastPathFlags() {
  sink_fast_ = machine_->trace_sink();
  has_hooks_ = !machine_->prestore_hooks().empty();
  AccessSampleHook* sampler = machine_->access_sample_hook();
  sampler_fast_ = sampler;
  const uint32_t period = sampler != nullptr ? sampler->SamplePeriod() : 0;
  if (period != sample_period_) {
    sample_period_ = period;
    sample_countdown_ = period;
  }
}

void Core::PushFunc(FuncToken token) {
  const uint32_t parent = cur_chain_;
  fstack_.push_back(token.id);
  chain_stack_.push_back(parent);
  const uint64_t key = (static_cast<uint64_t>(parent) << 32) | token.id;
  auto it = chain_cache_.find(key);
  if (it == chain_cache_.end()) {
    cur_chain_ = machine_->registry().InternChain(fstack_);
    chain_cache_.emplace(key, cur_chain_);
  } else {
    cur_chain_ = it->second;
  }
}

void Core::PopFunc() {
  assert(!fstack_.empty());
  fstack_.pop_back();
  cur_chain_ = chain_stack_.back();
  chain_stack_.pop_back();
}

// ---- Store buffer ----

bool Core::SbContains(uint64_t line_addr) const {
  return std::find(sb_.begin(), sb_.end(), line_addr) != sb_.end();
}

void Core::SbRemove(uint64_t line_addr) {
  auto it = std::find(sb_.begin(), sb_.end(), line_addr);
  if (it != sb_.end()) {
    sb_.erase(it);
  }
}

void Core::SbInsert(uint64_t line_addr) {
  if (sb_.size() >= config_.store_buffer_entries) {
    // Capacity pressure: the oldest private store is published in the
    // background (§4.2: CPUs advertise writes "when they run out of private
    // buffer space").
    const uint64_t oldest = sb_.front();
    sb_.pop_front();
    ++stats_.sb_capacity_drains;
    PushBg(machine_->PublishLine(id_, oldest, now_));
  }
  sb_.push_back(line_addr);
}

uint64_t Core::DrainSbAll(uint64_t start) {
  if (sb_.empty()) {
    return start;
  }
  // Publications at a fence proceed with limited overlap: entry i may start
  // only once entry i-P has completed (P = fence_drain_parallelism).
  const uint32_t p = std::max(1u, config_.fence_drain_parallelism);
  std::vector<uint64_t> completions;
  completions.reserve(sb_.size());
  uint64_t max_completion = start;
  size_t i = 0;
  for (uint64_t line : sb_) {
    uint64_t s = start;
    if (i >= p) {
      s = std::max(s, completions[i - p]);
    }
    const uint64_t c = machine_->PublishLine(id_, line, s);
    completions.push_back(c);
    max_completion = std::max(max_completion, c);
    ++i;
  }
  sb_.clear();
  return max_completion;
}

// ---- Background / write-combining queues ----

uint64_t Core::WaitAll(std::deque<uint64_t>& q, uint64_t t) {
  for (uint64_t c : q) {
    t = std::max(t, c);
  }
  q.clear();
  return t;
}

uint64_t Core::WaitAllWc(uint64_t t) {
  if (wc_.empty()) {
    return t;  // the usual fence: nothing in flight, wc_filter_ all zero
  }
  for (const WcEntry& e : wc_) {
    t = std::max(t, e.completion);
  }
  wc_.clear();
  std::memset(wc_filter_, 0, sizeof(wc_filter_));
  return t;
}

void Core::PushBg(uint64_t completion) {
  while (!bg_.empty() && bg_.front() <= now_) {
    bg_.pop_front();
  }
  bg_.push_back(completion);
  while (bg_.size() > config_.max_background_ops) {
    if (bg_.front() > now_) {
      stats_.cycles_bg_wait += bg_.front() - now_;
      now_ = bg_.front();
    }
    bg_.pop_front();
  }
}

void Core::PushWc(uint64_t line_addr, uint64_t completion) {
  while (!wc_.empty() && wc_.front().completion <= now_) {
    --wc_filter_[WcSlot(wc_.front().line_addr)];
    wc_.pop_front();
  }
  wc_.push_back(WcEntry{line_addr, completion});
  ++wc_filter_[WcSlot(line_addr)];
  while (wc_.size() > config_.wc_buffer_entries) {
    if (wc_.front().completion > now_) {
      stats_.cycles_wc_wait += wc_.front().completion - now_;
      now_ = wc_.front().completion;
    }
    --wc_filter_[WcSlot(wc_.front().line_addr)];
    wc_.pop_front();
  }
}

bool Core::WaitPendingWriteback(uint64_t line_addr) {
  if (wc_filter_[WcSlot(line_addr)] == 0) {
    return false;  // nothing in flight: every store/load-miss takes this exit
  }
  bool found = false;
  for (auto it = wc_.begin(); it != wc_.end();) {
    if (it->line_addr == line_addr) {
      if (it->completion > now_) {
        stats_.cycles_wb_pending += it->completion - now_;
        now_ = it->completion;
      }
      --wc_filter_[WcSlot(line_addr)];
      it = wc_.erase(it);
      found = true;
    } else {
      ++it;
    }
  }
  return found;
}

// ---- L1 fill ----

void Core::FillL1(uint64_t line_addr, bool exclusive, bool dirty) {
  CacheLineMeta* present = l1_.Touch(line_addr);
  if (present != nullptr) {
    present->exclusive = present->exclusive || exclusive;
    present->dirty = present->dirty || dirty;
    return;
  }
  CacheLineMeta* meta = nullptr;
  const SetAssocCache::Victim victim = l1_.Insert(line_addr, dirty, &meta);
  meta->exclusive = exclusive;
  if (victim.valid) {
    machine_->L1VictimWriteback(id_, victim.line_addr, victim.dirty, now_);
  }
}

// ---- Per-line timing paths ----

void Core::LineLoad(uint64_t line_addr) {
  if (l1_.Touch(line_addr) != nullptr) {
    ++stats_.l1_hits;
    now_ += config_.l1.hit_latency;
    return;
  }
  if (SbContains(line_addr)) {
    // Store-to-load forwarding from the private buffer.
    ++stats_.sb_forwards;
    now_ += kStoreIssueCost;
    return;
  }
  // A line with an in-flight writeback and no cached copy (the non-temporal
  // store case — §7.2.1 "skipping the cache doubles the time spent loading
  // the value of the previously written packet") must wait for the
  // writeback before it can be read back — and the prefetcher cannot have
  // fetched it (it was not in memory yet), so no stream discount either.
  const bool was_in_flight =
      WaitPendingWriteback(line_addr) || RecentlyNtWritten(line_addr);
  ++stats_.l1_misses;
  bool streamed = false;
  if (!was_in_flight) {
    for (size_t i = 0; i < kMissStreams; ++i) {
      if (miss_streams_[i] + config_.line_size == line_addr) {
        miss_streams_[i] = line_addr;  // stream advances in place
        streamed = true;
        break;
      }
    }
    if (!streamed) {
      miss_streams_[next_stream_] = line_addr;
      next_stream_ = (next_stream_ + 1) % kMissStreams;
    }
  }
  const uint64_t before = now_;
  now_ = machine_->LlcAccess(id_, line_addr, Machine::AccessMode::kRead, now_,
                             streamed);
  stats_.cycles_load_miss += now_ - before;
  FillL1(line_addr, /*exclusive=*/false, /*dirty=*/false);
}

void Core::NoteCleanedLine(uint64_t line_addr) {
  // Direct-mapped table, allocated on first use (only runs with an installed
  // PrestoreHook pay for it). A colliding clean evicts the previous entry —
  // a false negative, never a false positive (slots store the full address).
  // O(1) per clean and per store keeps hook-observed runs near full speed,
  // and the capacity covers multi-megabyte rewrite distances (e.g. the IS
  // rank scatter revisits a cleaned line ~32k cleans later).
  if (recent_clean_.empty()) {
    recent_clean_.assign(kCleanTableSize, 0);
  }
  recent_clean_[(line_addr >> 6) & (kCleanTableSize - 1)] = line_addr;
}

void Core::NotifyRewriteIfCleaned(uint64_t line_addr) {
  if (recent_clean_.empty()) {
    return;
  }
  uint64_t& slot = recent_clean_[(line_addr >> 6) & (kCleanTableSize - 1)];
  if (slot == line_addr) {
    slot = 0;  // report each clean at most once
    // Only a rewrite that catches the line still cached wasted the clean's
    // writeback (the dirty data would have coalesced in cache); once the
    // line has been evicted, the writeback was owed regardless of the
    // clean, so the hint did no harm. Distinguishes Listing-3 / FT-scratch
    // misuse (L1-resident) and the IS rank scatter (LLC-resident) from
    // Listing-1's benign far-distance element repeats (long evicted).
    if (!machine_->LlcResident(line_addr)) {
      return;
    }
    for (PrestoreHook* hook : machine_->prestore_hooks()) {
      hook->OnRewriteAfterClean(id_, line_addr, now_);
    }
  }
}

void Core::LineStore(uint64_t line_addr) {
  if (HasHooks()) {
    NotifyRewriteIfCleaned(line_addr);
  }
  WaitPendingWriteback(line_addr);
  CacheLineMeta* meta = l1_.Touch(line_addr);
  if (meta != nullptr && meta->exclusive) {
    meta->dirty = true;
    now_ += kStoreIssueCost;
    return;
  }
  now_ += kStoreIssueCost;
  if (config_.drain == StoreDrainPolicy::kEagerTso) {
    // TSO: the store becomes globally visible eagerly, in the background
    // (read-for-ownership overlapped via the background-op window).
    const uint64_t completion = machine_->PublishLine(id_, line_addr, now_);
    stats_.publish_latency_sum += completion - now_;
    ++stats_.publishes;
    PushBg(completion);
  } else {
    // Weak ordering: the write stays private until something forces it out.
    if (!SbContains(line_addr)) {
      SbInsert(line_addr);
    }
  }
}

void Core::TimedLines(SimAddr addr, size_t size, bool is_store) {
  const uint64_t ls = config_.line_size;
  SimAddr a = addr;
  size_t remaining = size;
  while (remaining > 0) {
    const uint64_t line = LineBase(a, ls);
    const size_t in_line =
        std::min<size_t>(remaining, line + ls - a);
    if (is_store) {
      ++stats_.stores;
      LineStore(line);
      Emit(TraceKind::kStore, a, static_cast<uint32_t>(in_line));
    } else {
      ++stats_.loads;
      LineLoad(line);
      Emit(TraceKind::kLoad, a, static_cast<uint32_t>(in_line));
    }
    MaybeSampleAccess(line, is_store);
    icount_ += std::max<size_t>(1, in_line / 8);
    a += in_line;
    remaining -= in_line;
  }
}

// ---- Data operations ----

uint64_t Core::LoadU64(SimAddr addr) {
  uint64_t v;
  std::memcpy(&v, machine_->HostPtr(addr), 8);
  TimedAccess(addr, 8, /*is_store=*/false);
  return v;
}

uint32_t Core::LoadU32(SimAddr addr) {
  uint32_t v;
  std::memcpy(&v, machine_->HostPtr(addr), 4);
  TimedAccess(addr, 4, /*is_store=*/false);
  return v;
}

void Core::StoreU64(SimAddr addr, uint64_t value) {
  std::memcpy(machine_->HostPtr(addr), &value, 8);
  TimedAccess(addr, 8, /*is_store=*/true);
}

void Core::StoreU32(SimAddr addr, uint32_t value) {
  std::memcpy(machine_->HostPtr(addr), &value, 4);
  TimedAccess(addr, 4, /*is_store=*/true);
}

double Core::LoadF64(SimAddr addr) {
  double v;
  std::memcpy(&v, machine_->HostPtr(addr), 8);
  TimedAccess(addr, 8, /*is_store=*/false);
  return v;
}

void Core::StoreF64(SimAddr addr, double value) {
  std::memcpy(machine_->HostPtr(addr), &value, 8);
  TimedAccess(addr, 8, /*is_store=*/true);
}

void Core::MemCopyToSim(SimAddr dst, const void* src, size_t size) {
  std::memcpy(machine_->HostPtr(dst), src, size);
  TimedAccess(dst, size, /*is_store=*/true);
}

void Core::MemCopyFromSim(void* dst, SimAddr src, size_t size) {
  std::memcpy(dst, machine_->HostPtr(src), size);
  TimedAccess(src, size, /*is_store=*/false);
}

void Core::MemCopySimToSim(SimAddr dst, SimAddr src, size_t size) {
  std::memmove(machine_->HostPtr(dst), machine_->HostPtr(src), size);
  TimedAccess(src, size, /*is_store=*/false);
  TimedAccess(dst, size, /*is_store=*/true);
}

void Core::MemSet(SimAddr dst, uint8_t byte, size_t size) {
  std::memset(machine_->HostPtr(dst), byte, size);
  TimedAccess(dst, size, /*is_store=*/true);
}

// ---- Ordering ----

void Core::EndSlice() { SimScheduler::YieldCurrent(); }

void Core::SpinPause(uint64_t cycles) {
  ++icount_;
  const uint64_t target = machine_->ApproxGlobalTime();
  if (now_ < target) {
    now_ = std::min(now_ + cycles, target);
    PublishClock();
    MaybeEndSlice();
  } else {
    PublishClock();
    EndSlice();  // nobody to catch up with: let the other cores run
  }
}

void Core::Fence() {
  PublishClock();
  ++stats_.fences;
  ++icount_;
  if (HasHooks()) {
    for (PrestoreHook* hook : machine_->prestore_hooks()) {
      hook->OnFence(id_, now_);
    }
  }
  const uint64_t begin = now_;
  uint64_t t = DrainSbAll(now_);
  t = WaitAll(bg_, t);
  t = WaitAllWc(t);
  now_ = std::max(now_ + kFenceIssueCost, t);
  stats_.fence_stall_cycles += now_ - begin;
  Emit(TraceKind::kFence, 0, 0);
  MaybeEndSlice();
}

bool Core::CasU64(SimAddr addr, uint64_t& expected, uint64_t desired) {
  PublishClock();
  ++stats_.atomics;
  ++icount_;
  // Atomics carry fence semantics (§4.2): all private stores publish first,
  // and fence-sensitive observers (governor gate, region monitor) must see
  // them or CAS-publish patterns (X9) read as fence-free.
  if (HasHooks()) {
    for (PrestoreHook* hook : machine_->prestore_hooks()) {
      hook->OnFence(id_, now_);
    }
  }
  uint64_t t = DrainSbAll(now_);
  t = WaitAll(bg_, t);
  t = WaitAllWc(t);
  now_ = std::max(now_, t);
  const uint64_t line = machine_->LineBaseOf(addr);
  now_ = machine_->PublishLine(id_, line, now_) + config_.atomic_latency;
  Emit(TraceKind::kAtomic, addr, 8);
  uint64_t current;
  std::memcpy(&current, machine_->HostPtr(addr), 8);
  const bool swapped = current == expected;
  if (swapped) {
    std::memcpy(machine_->HostPtr(addr), &desired, 8);
  } else {
    expected = current;
  }
  MaybeEndSlice();
  return swapped;
}

uint64_t Core::FetchAddU64(SimAddr addr, uint64_t delta) {
  PublishClock();
  ++stats_.atomics;
  ++icount_;
  if (HasHooks()) {
    for (PrestoreHook* hook : machine_->prestore_hooks()) {
      hook->OnFence(id_, now_);
    }
  }
  uint64_t t = DrainSbAll(now_);
  t = WaitAll(bg_, t);
  t = WaitAllWc(t);
  now_ = std::max(now_, t);
  const uint64_t line = machine_->LineBaseOf(addr);
  now_ = machine_->PublishLine(id_, line, now_) + config_.atomic_latency;
  Emit(TraceKind::kAtomic, addr, 8);
  uint64_t old;
  std::memcpy(&old, machine_->HostPtr(addr), 8);
  const uint64_t sum = old + delta;
  std::memcpy(machine_->HostPtr(addr), &sum, 8);
  MaybeEndSlice();
  return old;
}

uint64_t Core::AtomicLoadU64(SimAddr addr) {
  PublishClock();
  const uint64_t line = machine_->LineBaseOf(addr);
  LineLoad(line);
  ++stats_.loads;
  ++icount_;
  Emit(TraceKind::kLoad, addr, 8);
  uint64_t v;
  std::memcpy(&v, machine_->HostPtr(addr), 8);
  MaybeEndSlice();
  return v;
}

void Core::AtomicStoreU64(SimAddr addr, uint64_t value) {
  PublishClock();
  ++stats_.atomics;
  ++icount_;
  // Release: prior stores must be visible first.
  const uint64_t t = DrainSbAll(now_);
  now_ = std::max(now_, t);
  const uint64_t line = machine_->LineBaseOf(addr);
  now_ = machine_->PublishLine(id_, line, now_) + config_.atomic_latency;
  Emit(TraceKind::kAtomic, addr, 8);
  std::memcpy(machine_->HostPtr(addr), &value, 8);
  MaybeEndSlice();
}

// ---- Pre-stores ----

void Core::Prestore(SimAddr addr, size_t size, PrestoreOp op) {
  if (size == 0) {
    return;
  }
  const uint64_t ls = config_.line_size;
  const uint64_t first = LineBase(addr, ls);
  const uint64_t last = LineBase(addr + size - 1, ls);
  const std::vector<PrestoreHook*>& hooks = machine_->prestore_hooks();
  for (uint64_t line = first; line <= last; line += ls) {
    if (HasHooks()) {
      bool drop = false;
      for (PrestoreHook* hook : hooks) {
        if (hook->OnPrestoreHint(id_, line, op, now_) == HintFate::kDrop) {
          drop = true;
        }
      }
      if (drop) {
        // A suppressed hint issues no instruction: the governor's check is
        // a predicted branch around the hint, so no issue cycle is charged.
        ++stats_.prestores_suppressed;
        continue;
      }
    }
    ++icount_;
    now_ += kStoreIssueCost;  // issuing a pre-store is ~1 cycle (§5)
    switch (op) {
      case PrestoreOp::kDemote: {
        ++stats_.prestores_demote;
        if (SbContains(line)) {
          SbRemove(line);
          PushBg(machine_->PublishLineDemote(id_, line, now_));
        } else {
          // Residency check only — Peek so a useless demote hint can't
          // perturb the set's way hint.
          if (l1_.Peek(line) != nullptr) {
            PushBg(machine_->PublishLineDemote(id_, line, now_));
          } else {
            // Not in a private buffer and not in L1: nothing to demote.
            for (PrestoreHook* hook : hooks) {
              hook->OnUselessHint(id_, line, op);
            }
          }
        }
        break;
      }
      case PrestoreOp::kClean: {
        ++stats_.prestores_clean;
        if (SbContains(line)) {
          SbRemove(line);
          // The publication occupies a miss-handling slot; the writeback
          // occupies a write-combining slot.
          const uint64_t published = machine_->PublishLine(id_, line, now_);
          PushBg(published);
          PushWc(line, machine_->CleanLine(id_, line, published));
          if (HasHooks()) {
            NoteCleanedLine(line);
          }
        } else {
          const uint64_t c = machine_->CleanLine(id_, line, now_);
          if (c != now_) {
            PushWc(line, c);
            if (HasHooks()) {
              NoteCleanedLine(line);
            }
          } else {
            // The line was already clean: the hint moved nothing.
            for (PrestoreHook* hook : hooks) {
              hook->OnUselessHint(id_, line, op);
            }
          }
        }
        break;
      }
    }
    Emit(TraceKind::kPrestore, line, static_cast<uint32_t>(ls));
  }
  MaybeEndSlice();
}

void Core::StoreNt(SimAddr dst, const void* src, size_t size) {
  std::memcpy(machine_->HostPtr(dst), src, size);
  NtLines(dst, size);
  MaybeEndSlice();
}

void Core::NtLines(SimAddr dst, size_t size) {
  nt_used_ = true;
  const uint64_t ls = config_.line_size;
  SimAddr a = dst;
  size_t remaining = size;
  while (remaining > 0) {
    const uint64_t line = LineBase(a, ls);
    const size_t in_line = std::min<size_t>(remaining, line + ls - a);
    SbRemove(line);
    machine_->InvalidateLine(id_, line);
    if (!RecentlyNtWritten(line)) {
      --nt_filter_[NtSlot(recent_nt_[next_nt_])];
      ++nt_filter_[NtSlot(line)];
      recent_nt_[next_nt_] = line;
      next_nt_ = (next_nt_ + 1) % kRecentNt;
    }
    ++stats_.nt_lines;
    ++stats_.stores;
    const uint64_t chunk_cost = std::max<size_t>(1, in_line / 8);
    icount_ += chunk_cost;
    now_ += chunk_cost;
    PushWc(line, machine_->DeviceFor(line).Write(
                     line, static_cast<uint32_t>(in_line), now_));
    Emit(TraceKind::kNtStore, a, static_cast<uint32_t>(in_line));
    a += in_line;
    remaining -= in_line;
  }
}

void Core::StoreNtU64(SimAddr dst, uint64_t value) {
  StoreNt(dst, &value, 8);
}

// ---- Word runs ----
//
// Each line's first word, and the first word after a slice end, is the
// single-word op. Nothing else runs until the slice ends, so the state it
// leaves decides what each follow-on word of the line does, and a run of
// them is charged at once, up to the op that ends the slice. Host memory is
// copied only for ops that completed: a parked fiber's peers may read it.

template <typename First, typename Follow>
void Core::WordRun(SimAddr addr, size_t n, First first, Follow follow) {
  const bool closed_form = sink_fast_ == nullptr &&
                           sampler_fast_ == nullptr && !has_hooks_ &&
                           addr % 8 == 0;
  const uint64_t ls = config_.line_size;
  size_t i = 0;
  while (i < n) {
    const SimAddr a = addr + 8 * i;
    first(i, a);
    ++i;
    if (now_ >= slice_deadline_) {
      EndSlice();
      continue;
    }
    if (!closed_form) {
      continue;
    }
    const uint64_t line = LineBase(a, ls);
    const size_t left = std::min<size_t>(n - i, (line + ls - a) / 8 - 1);
    if (left > 0) {
      i += follow(i, line, left);
    }
  }
}

void Core::LoadU64s(SimAddr src, uint64_t* out, size_t n) {
  const auto first = [&](size_t i, SimAddr a) {
    std::memcpy(&out[i], machine_->HostPtr(a), 8);
    TimedLines(a, 8, /*is_store=*/false);
  };
  const auto follow = [&](size_t i, uint64_t line, size_t left) {
    // A load leaves its line in L1 (a hit or a fill), or forwards it from
    // the store buffer without filling L1.
    const bool hit = l1_.Peek(line) != nullptr;
    PRESTORE_INVARIANT(hit || SbContains(line),
                       "a loaded line is in L1 or the store buffer");
    const uint64_t cost = hit ? config_.l1.hit_latency : kStoreIssueCost;
    const size_t m = OpsInSlice(cost, left);
    std::memcpy(&out[i], machine_->HostPtr(src + 8 * i), 8 * m);
    if (hit) {
      l1_.Touch(line, m);
      stats_.l1_hits += m;
    } else {
      stats_.sb_forwards += m;
    }
    stats_.loads += m;
    icount_ += m;
    now_ += m * cost;
    MaybeEndSlice();
    return m;
  };
  WordRun(src, n, first, follow);
}

void Core::StoreU64s(SimAddr dst, const uint64_t* words, size_t n) {
  const auto first = [&](size_t i, SimAddr a) {
    std::memcpy(machine_->HostPtr(a), &words[i], 8);
    TimedLines(a, 8, /*is_store=*/true);
  };
  const auto follow = [&](size_t i, uint64_t line, size_t left) {
    // A store leaves its line L1-exclusive and dirty (a hit, or eager
    // TSO's publication) or in the store buffer (weak ordering), and
    // waited out the line's writebacks, of which a store run starts none.
    // So each follow-on word is an issue cycle and a touch of any L1 copy.
    PRESTORE_INVARIANT(
        (l1_.Peek(line) != nullptr && l1_.Peek(line)->exclusive &&
         l1_.Peek(line)->dirty) ||
            SbContains(line),
        "a stored line is L1-exclusive or in the store buffer");
    const size_t m = OpsInSlice(kStoreIssueCost, left);
    std::memcpy(machine_->HostPtr(dst + 8 * i), &words[i], 8 * m);
    l1_.Touch(line, m);
    stats_.stores += m;
    icount_ += m;
    now_ += m * kStoreIssueCost;
    MaybeEndSlice();
    return m;
  };
  WordRun(dst, n, first, follow);
}

void Core::StoreNtU64s(SimAddr dst, const uint64_t* words, size_t n) {
  const auto first = [&](size_t i, SimAddr a) {
    std::memcpy(machine_->HostPtr(a), &words[i], 8);
    NtLines(a, 8);
  };
  const auto follow = [&](size_t i, uint64_t line, size_t left) {
    // The first word took the line out of the store buffer and every
    // cache, and into the recent-NT ring. Each follow-on word still writes
    // the device and takes a write-combining slot, either of which can
    // stall, so the deadline is checked after each.
    Device& device = machine_->DeviceFor(line);
    size_t m = 0;
    while (m < left) {
      std::memcpy(machine_->HostPtr(dst + 8 * (i + m)), &words[i + m], 8);
      ++stats_.nt_lines;
      ++stats_.stores;
      ++icount_;
      ++now_;
      PushWc(line, device.Write(line, 8, now_));
      ++m;
      if (now_ >= slice_deadline_) {
        EndSlice();
        break;
      }
    }
    return m;
  };
  WordRun(dst, n, first, follow);
}

}  // namespace prestore
