#include "src/dirtbuster/analyzer.h"

#include <algorithm>
#include <cmath>

#include "src/sim/config.h"

namespace prestore {

PatternAnalyzer::PatternAnalyzer(uint64_t line_size,
                                 std::set<uint32_t> selected_funcs)
    : line_size_(line_size),
      selected_(std::move(selected_funcs)),
      per_core_(kMaxCores) {}

void PatternAnalyzer::Record(const TraceRecord& rec) {
  PerCore& pc = per_core_[rec.core_id];
  switch (rec.kind) {
    case TraceKind::kStore:
    case TraceKind::kNtStore:
      if (selected_.count(rec.func_id) != 0) {
        OnStore(pc, rec);
      }
      break;
    case TraceKind::kLoad:
      OnLoad(pc, rec);
      break;
    case TraceKind::kFence:
    case TraceKind::kAtomic:
      OnFence(pc, rec);
      break;
    case TraceKind::kPrestore:
      break;
  }
}

void PatternAnalyzer::OnStore(PerCore& pc, const TraceRecord& rec) {
  pc.func_writes[rec.func_id] += 1;
  pc.func_write_bytes[rec.func_id] += rec.size;

  // --- Sequentiality contexts (§6.2.2) ---
  // A write continues a context if it starts exactly at (or within the
  // slack after) the context's current end.
  uint32_t ctx_index = 0xffffffff;
  bool continues = false;
  for (uint64_t back = 0; back <= kSeqAdjacencySlack; back += 8) {
    if (rec.addr < back) {
      break;
    }
    auto it = pc.by_end.find(rec.addr - back);
    if (it != pc.by_end.end() &&
        pc.contexts[it->second].func_id == rec.func_id &&
        rec.icount - pc.contexts[it->second].last_write_icount <=
            kSeqStalenessInstructions) {
      ctx_index = it->second;
      pc.by_end.erase(it);
      continues = true;
      break;
    }
  }
  if (continues) {
    Context& ctx = pc.contexts[ctx_index];
    ctx.end = std::max(ctx.end, rec.addr + rec.size);
    ctx.last_write_icount = rec.icount;
    ctx.writes += 1;
    pc.by_end[ctx.end] = ctx_index;
  } else {
    ctx_index = static_cast<uint32_t>(pc.contexts.size());
    Context ctx;
    ctx.func_id = rec.func_id;
    ctx.start = rec.addr;
    ctx.end = rec.addr + rec.size;
    ctx.last_write_icount = rec.icount;
    ctx.writes = 1;
    pc.contexts.push_back(std::move(ctx));
    pc.by_end[rec.addr + rec.size] = ctx_index;
  }

  // --- Re-write distance (§6.2.3) ---
  const uint64_t line = rec.addr & ~(line_size_ - 1);
  LineInfo& li = pc.lines[line];
  if (li.written && !continues) {
    // Only a write that breaks a sequential streak counts as a re-write
    // (otherwise every long sequential pass would look like rewriting).
    if (li.ctx_index < pc.contexts.size()) {
      pc.contexts[li.ctx_index].rewrite.Add(
          static_cast<double>(rec.icount - li.last_write_icount));
    }
  }
  li.written = true;
  li.last_write_icount = rec.icount;
  li.ctx_index = ctx_index;

  // --- Writes-before-fence tracking (§6.2.2) ---
  if (pc.pending.size() < kMaxPendingStores) {
    pc.pending.push_back(PendingStore{rec.icount, rec.func_id});
  } else {
    ++pc.dropped_pending;
  }
}

void PatternAnalyzer::OnLoad(PerCore& pc, const TraceRecord& rec) {
  // Loads matter only for re-read distances of lines previously written by a
  // selected function.
  const uint64_t line = rec.addr & ~(line_size_ - 1);
  LineInfo* li = pc.lines.Find(line);
  if (li == nullptr || !li->written) {
    return;
  }
  if (li->ctx_index < pc.contexts.size()) {
    pc.contexts[li->ctx_index].reread.Add(
        static_cast<double>(rec.icount - li->last_write_icount));
  }
  li->last_read_icount = rec.icount;
}

void PatternAnalyzer::OnFence(PerCore& pc, const TraceRecord& rec) {
  for (const PendingStore& ps : pc.pending) {
    const uint64_t d = rec.icount - ps.icount;
    pc.fence_dist[ps.func_id].Add(static_cast<double>(d));
    if (d <= kFenceNearInstructions) {
      pc.fence_near_writes[ps.func_id] += 1;
    }
    auto [it, inserted] = pc.min_fence_dist.try_emplace(ps.func_id, d);
    if (!inserted && d < it->second) {
      it->second = d;
    }
  }
  pc.pending.clear();
}

std::vector<FunctionAnalysis> PatternAnalyzer::Finalize() {
  struct ClassAccum {
    uint64_t contexts = 0;
    uint64_t writes = 0;
    double bytes_sum = 0.0;
    RunningStat reread;
    RunningStat rewrite;
  };
  struct FuncAccum {
    uint64_t writes = 0;
    uint64_t write_bytes = 0;
    uint64_t seq_writes = 0;
    std::unordered_map<int, ClassAccum> classes;  // keyed by log2 size bucket
    RunningStat fence_dist;
    uint64_t fence_near = 0;
    uint64_t min_fence = ~0ULL;
    bool min_fence_seen = false;
  };
  std::unordered_map<uint32_t, FuncAccum> funcs;

  for (PerCore& pc : per_core_) {
    for (const auto& [f, w] : pc.func_writes) {
      funcs[f].writes += w;
    }
    for (const auto& [f, b] : pc.func_write_bytes) {
      funcs[f].write_bytes += b;
    }
    for (const Context& ctx : pc.contexts) {
      FuncAccum& fa = funcs[ctx.func_id];
      const uint64_t bytes = ctx.end - ctx.start;
      if (ctx.writes >= kMinSeqContextWrites) {
        fa.seq_writes += ctx.writes;
      }
      const int bucket = bytes == 0 ? 0 : 64 - __builtin_clzll(bytes);
      ClassAccum& ca = fa.classes[bucket];
      ca.contexts += 1;
      ca.writes += ctx.writes;
      ca.bytes_sum += static_cast<double>(bytes);
      ca.reread.Merge(ctx.reread);
      ca.rewrite.Merge(ctx.rewrite);
    }
    for (const auto& [f, stat] : pc.fence_dist) {
      funcs[f].fence_dist.Merge(stat);
    }
    for (const auto& [f, n] : pc.fence_near_writes) {
      funcs[f].fence_near += n;
    }
    for (const auto& [f, d] : pc.min_fence_dist) {
      FuncAccum& fa = funcs[f];
      fa.min_fence = std::min(fa.min_fence, d);
      fa.min_fence_seen = true;
    }
  }

  std::vector<FunctionAnalysis> out;
  for (auto& [func_id, fa] : funcs) {
    if (fa.writes == 0) {
      continue;
    }
    FunctionAnalysis analysis;
    analysis.func_id = func_id;
    analysis.writes = fa.writes;
    analysis.write_bytes = fa.write_bytes;
    analysis.seq_write_fraction =
        static_cast<double>(fa.seq_writes) / static_cast<double>(fa.writes);
    analysis.writes_before_fence_fraction =
        static_cast<double>(fa.fence_near) / static_cast<double>(fa.writes);
    analysis.mean_fence_distance = fa.fence_dist.Mean();
    analysis.min_fence_distance = fa.min_fence_seen ? fa.min_fence : 0;
    for (const auto& [bucket, ca] : fa.classes) {
      SizeClassReport sc;
      sc.representative_bytes = static_cast<uint64_t>(
          ca.bytes_sum / static_cast<double>(ca.contexts));
      sc.write_share =
          static_cast<double>(ca.writes) / static_cast<double>(fa.writes);
      sc.context_count = ca.contexts;
      sc.reread_finite = ca.reread.Count() > 0;
      sc.reread_distance = ca.reread.Mean();
      sc.rewrite_finite = ca.rewrite.Count() > 0;
      sc.rewrite_distance = ca.rewrite.Mean();
      analysis.classes.push_back(sc);
    }
    std::sort(analysis.classes.begin(), analysis.classes.end(),
              [](const SizeClassReport& a, const SizeClassReport& b) {
                return a.write_share > b.write_share;
              });
    out.push_back(std::move(analysis));
  }
  std::sort(out.begin(), out.end(),
            [](const FunctionAnalysis& a, const FunctionAnalysis& b) {
              return a.writes > b.writes;
            });
  return out;
}

}  // namespace prestore
