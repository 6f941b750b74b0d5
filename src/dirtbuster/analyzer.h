// DirtBuster steps 2 & 3 (§6.2.2, §6.2.3): full instrumentation of the
// write-intensive functions found by the sampler. Stand-in for Intel PIN.
//
// Detects, per function:
//  - sequential-write contexts (ranges of adjacent writes) and their sizes,
//  - the instruction distance from writes to the next fence/atomic,
//  - per-cache-line re-read and re-write distances (kept in a B-tree).
#ifndef SRC_DIRTBUSTER_ANALYZER_H_
#define SRC_DIRTBUSTER_ANALYZER_H_

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/dirtbuster/btree.h"
#include "src/trace/trace.h"
#include "src/util/stats.h"

namespace prestore {

// Aggregated view of one group of similarly-sized sequential contexts.
struct SizeClassReport {
  uint64_t representative_bytes = 0;  // mean context size in this class
  double write_share = 0.0;           // fraction of the function's writes
  uint64_t context_count = 0;
  // Mean instruction distances; `finite` is false when the data was never
  // re-read / re-written ("re-read inf" in the paper's report).
  bool reread_finite = false;
  double reread_distance = 0.0;
  bool rewrite_finite = false;
  double rewrite_distance = 0.0;
};

struct FunctionAnalysis {
  uint32_t func_id = kInvalidFunc;
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  // Fraction of writes that landed in a sequential context (>= 2 adjacent
  // writes).
  double seq_write_fraction = 0.0;
  std::vector<SizeClassReport> classes;  // descending write share
  // Fraction of writes followed by a fence/atomic within
  // PatternAnalyzer::kFenceNearInstructions, and the mean distance to it.
  double writes_before_fence_fraction = 0.0;
  double mean_fence_distance = 0.0;
  uint64_t min_fence_distance = 0;
};

class PatternAnalyzer : public TraceSink {
 public:
  // A new write continues a sequentiality context if it starts within this
  // many bytes after the context's current end...
  static constexpr uint64_t kSeqAdjacencySlack = 64;
  // ...and within this many instructions of the context's previous write.
  // Address-adjacent writes that are far apart in time (e.g. bucket-sort
  // scatters) are NOT sequential for the cache: the line is long evicted.
  static constexpr uint64_t kSeqStalenessInstructions = 10000;
  // A context counts as sequential only with at least this many adjacent
  // writes: pairs occur by chance in random scatters.
  static constexpr uint64_t kMinSeqContextWrites = 4;
  // Stores with a fence within this many instructions count as
  // "written before a fence".
  static constexpr uint64_t kFenceNearInstructions = 4096;
  // Cap on pending (store -> next fence) tracking per core.
  static constexpr size_t kMaxPendingStores = 65536;

  // `line_size` is the analysed machine's cache line size.
  PatternAnalyzer(uint64_t line_size, std::set<uint32_t> selected_funcs);

  void Record(const TraceRecord& rec) override;

  // Merges all per-core state and produces one analysis per selected
  // function (functions with no observed writes are omitted).
  std::vector<FunctionAnalysis> Finalize();

 private:
  struct Context {
    uint32_t func_id;
    uint64_t start;
    uint64_t end;  // one past the last written byte
    uint64_t last_write_icount = 0;
    uint64_t writes = 0;
    RunningStat reread;
    RunningStat rewrite;
  };

  struct LineInfo {
    uint64_t last_write_icount = 0;
    uint64_t last_read_icount = 0;
    uint32_t ctx_index = 0xffffffff;
    bool written = false;
  };

  struct PendingStore {
    uint64_t icount;
    uint32_t func_id;
  };

  struct PerCore {
    std::vector<Context> contexts;
    // context lookup: exact end byte -> context index.
    std::unordered_map<uint64_t, uint32_t> by_end;
    BTreeMap<LineInfo, 16> lines;
    std::vector<PendingStore> pending;
    uint64_t dropped_pending = 0;
    // per-func fence distance stats & counts
    std::unordered_map<uint32_t, RunningStat> fence_dist;
    std::unordered_map<uint32_t, uint64_t> fence_near_writes;
    std::unordered_map<uint32_t, uint64_t> min_fence_dist;
    std::unordered_map<uint32_t, uint64_t> func_writes;
    std::unordered_map<uint32_t, uint64_t> func_write_bytes;
  };

  void OnStore(PerCore& pc, const TraceRecord& rec);
  void OnLoad(PerCore& pc, const TraceRecord& rec);
  void OnFence(PerCore& pc, const TraceRecord& rec);

  const uint64_t line_size_;
  std::set<uint32_t> selected_;
  std::vector<PerCore> per_core_;  // one per core id
};

}  // namespace prestore

#endif  // SRC_DIRTBUSTER_ANALYZER_H_
