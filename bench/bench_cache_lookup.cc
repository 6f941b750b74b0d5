// Cache-lookup microbench (ISSUE 9 / DESIGN.md §14): host-side ns per
// Touch-hit / Probe-miss / Insert on the SetBlock SetAssocCache
// (src/sim/cache.h) against the preserved pre-refactor parallel-array
// reference (src/sim/reference_cache.h), on the preset L1 and LLC
// geometries plus an 8x-scaled LLC whose metadata overflows the host's own
// caches — the regime the layout refactor targets.
//
// Before measuring, a randomized equivalence self-check drives both
// implementations through the same mixed op stream; any divergence in
// hit/miss outcomes, victim choices or resident lines exits non-zero (CI's
// perf-smoke job fails).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/sim/cache.h"
#include "src/sim/config.h"
#include "src/sim/reference_cache.h"
#include "src/util/cli.h"

using namespace prestore;

namespace {

struct Geometry {
  const char* name;
  CacheConfig cfg;
};

std::vector<Geometry> Geometries() {
  std::vector<Geometry> out;
  out.push_back({"l1-8w-plru", MachineA().l1});       // 32 KB, 64 sets
  out.push_back({"llc-16w-quad", MachineA().llc});    // 2 MB, 2048 sets
  CacheConfig big = MachineA().llc;                   // 16 MB, 16384 sets:
  big.size_bytes = 16ULL << 20;                       // metadata > host LLC
  out.push_back({"llc-big-16w-quad", big});
  return out;
}

// Deterministic scrambled index stream (no host-cache-friendly ordering).
struct Stream {
  uint64_t x;
  explicit Stream(uint64_t seed) : x(seed | 1) {}
  uint64_t Next() {
    x ^= x << 7;
    x ^= x >> 9;
    return x;
  }
};

struct PhaseTimes {
  double hit_ns = 0;
  double miss_ns = 0;
  double insert_ns = 0;
};

double NsPerOp(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1, uint64_t ops) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(ops);
}

// The measurement harness, shared by both implementations (identical API).
// `sink` defeats dead-code elimination without adding memory traffic.
template <typename Cache>
PhaseTimes Measure(const CacheConfig& cfg, uint64_t seed, uint64_t reps) {
  Cache cache(cfg, seed);
  const uint64_t sets = cfg.NumSets();
  const uint64_t capacity_lines = sets * cfg.ways;
  const uint64_t line = cfg.line_size;

  // Fill every set: resident lines are frames [0, capacity), scrambled so
  // consecutive lookups never share a SetBlock.
  std::vector<uint64_t> resident(capacity_lines);
  for (uint64_t i = 0; i < capacity_lines; ++i) {
    resident[i] = i * line;
  }
  Stream shuffle(seed ^ 0xf00d);
  for (uint64_t i = capacity_lines - 1; i > 0; --i) {
    std::swap(resident[i], resident[shuffle.Next() % (i + 1)]);
  }
  for (const uint64_t addr : resident) {
    cache.Insert(addr, false, nullptr);
  }

  PhaseTimes t;
  uint64_t sink = 0;

  // Hit leg: Touch over resident lines (every probe hits, replacement
  // state updates every time — the L1-hit branch of Core::LineLoad).
  auto t0 = std::chrono::steady_clock::now();
  for (uint64_t r = 0; r < reps; ++r) {
    for (const uint64_t addr : resident) {
      sink += cache.Touch(addr) != nullptr;
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  t.hit_ns = NsPerOp(t0, t1, reps * capacity_lines);

  // Miss leg: Probe over never-inserted frames aliasing the same sets
  // (full tag scan, no match — the cost every LLC miss pays first).
  std::vector<uint64_t> absent(capacity_lines);
  for (uint64_t i = 0; i < capacity_lines; ++i) {
    absent[i] = (capacity_lines + resident[i] / line) * line;
  }
  t0 = std::chrono::steady_clock::now();
  for (uint64_t r = 0; r < reps; ++r) {
    for (const uint64_t addr : absent) {
      sink += cache.Probe(addr) != nullptr;
    }
  }
  t1 = std::chrono::steady_clock::now();
  t.miss_ns = NsPerOp(t0, t1, reps * capacity_lines);

  // Insert leg: allocate fresh frames forever (victim pick + slot reset +
  // tag/hint/stamp updates on warm, full sets).
  Stream fresh(seed ^ 0xbeef);
  uint64_t next_frame = 2 * capacity_lines;
  t0 = std::chrono::steady_clock::now();
  for (uint64_t r = 0; r < reps; ++r) {
    for (uint64_t i = 0; i < capacity_lines; ++i) {
      cache.Insert((next_frame + (fresh.Next() % capacity_lines)) * line,
                   (i & 1) != 0, nullptr);
    }
    next_frame += capacity_lines;
  }
  t1 = std::chrono::steady_clock::now();
  t.insert_ns = NsPerOp(t0, t1, reps * capacity_lines);

  if (sink == 0xdeadbeef) {  // never true; keeps `sink` observable
    std::printf("sink %llu\n", static_cast<unsigned long long>(sink));
  }
  return t;
}

// Equivalence self-check: same mixed stream through both layouts; victims,
// hit/miss outcomes and resident lines must match op for op.
bool SelfCheck(const CacheConfig& cfg, uint64_t seed) {
  ReferenceSetAssocCache ref(cfg, seed);
  SetAssocCache neu(cfg, seed);
  Stream s(seed ^ 0x5e1f);
  const uint64_t span = 3 * cfg.NumSets() * cfg.ways + 7;
  for (int i = 0; i < 60000; ++i) {
    const uint64_t addr = (s.Next() % span) * cfg.line_size;
    if (i % 13 == 12) {
      if (ref.Remove(addr) != neu.Remove(addr)) {
        std::fprintf(stderr, "self-check: remove diverged at op %d\n", i);
        return false;
      }
      continue;
    }
    CacheLineMeta* hr = ref.Touch(addr);
    CacheLineMeta* hn = neu.Touch(addr);
    if ((hr == nullptr) != (hn == nullptr)) {
      std::fprintf(stderr, "self-check: hit/miss diverged at op %d\n", i);
      return false;
    }
    if (hr == nullptr) {
      const auto vr = ref.Insert(addr, (i & 1) != 0, nullptr);
      const auto vn = neu.Insert(addr, (i & 1) != 0, nullptr);
      if (vr.valid != vn.valid ||
          (vr.valid && vr.line_addr != vn.line_addr)) {
        std::fprintf(stderr, "self-check: victim diverged at op %d\n", i);
        return false;
      }
    }
  }
  if (ref.ValidLines() != neu.ValidLines()) {
    std::fprintf(stderr, "self-check: resident lines diverged\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const uint64_t seed = flags.GetInt("seed", 42);
  const std::string out_path =
      flags.GetString("out", "BENCH_cache_lookup.json");

  for (const Geometry& g : Geometries()) {
    if (!SelfCheck(g.cfg, seed)) {
      std::fprintf(stderr, "LAYOUT EQUIVALENCE CHECK FAILED on %s\n", g.name);
      return 1;
    }
  }
  std::printf("layout equivalence ok (all geometries)\n\n");

  struct Row {
    const char* name;
    PhaseTimes oldt, newt;
  };
  std::vector<Row> rows;
  std::printf("%-18s %6s | %9s %9s %8s | %9s %9s %8s | %9s %9s %8s\n",
              "geometry", "sets", "hit_old", "hit_new", "speedup", "miss_old",
              "miss_new", "speedup", "ins_old", "ins_new", "speedup");
  for (const Geometry& g : Geometries()) {
    // Repetitions sized so every geometry runs ~10M+ measured ops.
    const uint64_t cap = g.cfg.NumSets() * g.cfg.ways;
    const uint64_t reps =
        std::max<uint64_t>(1, (quick ? 2000000 : 12000000) / cap);
    Row row{g.name, Measure<ReferenceSetAssocCache>(g.cfg, seed, reps),
            Measure<SetAssocCache>(g.cfg, seed, reps)};
    rows.push_back(row);
    std::printf(
        "%-18s %6llu | %9.2f %9.2f %7.2fx | %9.2f %9.2f %7.2fx | %9.2f "
        "%9.2f %7.2fx\n",
        row.name, static_cast<unsigned long long>(g.cfg.NumSets()),
        row.oldt.hit_ns, row.newt.hit_ns, row.oldt.hit_ns / row.newt.hit_ns,
        row.oldt.miss_ns, row.newt.miss_ns,
        row.oldt.miss_ns / row.newt.miss_ns, row.oldt.insert_ns,
        row.newt.insert_ns, row.oldt.insert_ns / row.newt.insert_ns);
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"cache_lookup\",\n"
               "  \"quick\": %s,\n"
               "  \"seed\": %llu,\n"
               "  \"layout_equivalent\": true,\n"
               "  \"results\": [\n",
               quick ? "true" : "false",
               static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out,
                 "    {\"geometry\": \"%s\","
                 " \"hit_ns_old\": %.3f, \"hit_ns_new\": %.3f,"
                 " \"miss_ns_old\": %.3f, \"miss_ns_new\": %.3f,"
                 " \"insert_ns_old\": %.3f, \"insert_ns_new\": %.3f,"
                 " \"hit_speedup\": %.3f, \"miss_speedup\": %.3f,"
                 " \"insert_speedup\": %.3f}%s\n",
                 r.name, r.oldt.hit_ns, r.newt.hit_ns, r.oldt.miss_ns,
                 r.newt.miss_ns, r.oldt.insert_ns, r.newt.insert_ns,
                 r.oldt.hit_ns / r.newt.hit_ns,
                 r.oldt.miss_ns / r.newt.miss_ns,
                 r.oldt.insert_ns / r.newt.insert_ns,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
