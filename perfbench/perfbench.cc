// perfbench: the reproduction benchmark. Times calls into the public
// functions of the sim and kv modules from outside, on two workloads:
//
//   kv-masstree-a  Fig 11/12: YCSB-A on Masstree, KvMachineA, 2 client
//                  cores, a freshly preloaded machine per baseline/clean/skip
//   kv-clht-bfast  Fig 13: YCSB-A on CLHT, MachineBFast, 2 client cores,
//                  baseline and clean
//
// A run repeats whole rounds of its workload for --seconds and reports
// medians. End-to-end metrics (untraced run) are host-side:
// wall_s, setup_s, sim_maccess_per_s, peak_rss_mb, and error_rate with its
// base. --trace=1 adds spans around the public calls and prints the per-layer
// metrics; spans are written as Chrome trace-event JSON to --trace-out.
// Every round's outputs are checked; a failed check exits non-zero.
// README.md explains the workloads, metrics and noise findings, and why the
// replay-mix workload was dropped.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/kv_bench.h"
#include "perfbench/perfbench_stats.h"
#include "src/util/cli.h"
#include "src/util/rng.h"

using namespace prestore;
using perfbench::Median;
using perfbench::QuartilesOf;
using perfbench::SpanScope;
using perfbench::Tracer;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Runs `fn` inside a span and returns its host seconds.
template <typename Fn>
double Timed(Tracer& tracer, const char* name, const std::string& config,
             Fn&& fn) {
  SpanScope span(tracer, name, config);
  const auto t0 = Clock::now();
  fn();
  return Since(t0);
}

// ---- Metric catalogue -------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed in the result line of an untraced run. error_rate is printed
// beside them with its base; it is carried by the result's attempted/failed
// counts rather than as a metric, because it reads 0 on a healthy build.
const std::vector<MetricDef> kEndToEnd = {
    {"wall_s", "s"},
    {"setup_s", "s"},
    {"sim_maccess_per_s", "Maccess/s"},
    {"peak_rss_mb", "MB"},
};

// Printed in the result line of a traced run. Counts and times cover one
// round (median over rounds), summed over its configs; each also appears
// per config in the report above the result line.
const std::vector<MetricDef> kPerLayer = {
    {"sim.machine_ctor_s", "s"},
    {"kv.load_s", "s"},
    {"kv.load_us_per_key", "us/key"},
    {"kv.run_s.baseline", "s"},
    {"kv.run_s.clean", "s"},
    {"kv.run_s.skip", "s"},
    {"kv.run_us_per_op", "us/op"},
    {"sim.host_ns_per_access.load", "ns/access"},
    {"sim.host_ns_per_access.run", "ns/access"},
    {"sim.accesses", "count"},
    {"sim.l1.hit_ratio", "ratio"},
    {"sim.llc.hits", "count"},
    {"sim.llc.misses", "count"},
    {"sim.llc.hit_ratio", "ratio"},
    {"sim.llc.evictions", "count"},
    {"sim.llc.wbq_stall_cycles", "cycles"},
    {"sim.device.media_bytes_written", "bytes"},
    {"sim.device.write_amp", "ratio"},
    {"sim.llc.interventions", "count"},
    {"sim.llc.back_invalidations", "count"},
    {"sim.llc.dir_upgrades", "count"},
    {"sim.device.directory_accesses", "count"},
    {"sim.core.fence_stall_cycles", "cycles"},
    {"sim.core.publish_latency_sum", "cycles"},
    {"sim.core.prestores_clean", "count"},
    {"sim.core.nt_lines", "count"},
    {"sim.core.cycles_wc_wait", "cycles"},
    {"sim.core.cycles_load_miss", "cycles"},
    {"kv.req_per_mcycle.baseline", "req/Mcycle"},
    {"kv.req_per_mcycle.clean", "req/Mcycle"},
    {"kv.req_per_mcycle.skip", "req/Mcycle"},
    {"kv.speedup.clean", "x"},
    {"kv.speedup.skip", "x"},
    {"sim.mcycles", "Mcycles"},
    {"kv.failed_gets", "count"},
    {"trace.overhead_s", "s"},
};

// ---- Simulated counters -----------------------------------------------------

// Counters of one measured phase, summed over cores, read from CoreStats,
// MachineStats and the target device's DeviceStats.
struct SimCounts {
  CoreStats core;
  MachineStats llc;
  DeviceStats device;

  uint64_t Accesses() const { return core.loads + core.stores; }
};

SimCounts ReadCounts(Machine& machine) {
  SimCounts c;
  for (uint32_t i = 0; i < machine.num_cores(); ++i) {
    const CoreStats& s = machine.core(i).stats();
    c.core.loads += s.loads;
    c.core.stores += s.stores;
    c.core.l1_hits += s.l1_hits;
    c.core.l1_misses += s.l1_misses;
    c.core.fence_stall_cycles += s.fence_stall_cycles;
    c.core.publish_latency_sum += s.publish_latency_sum;
    c.core.prestores_clean += s.prestores_clean;
    c.core.nt_lines += s.nt_lines;
    c.core.cycles_wc_wait += s.cycles_wc_wait;
    c.core.cycles_load_miss += s.cycles_load_miss;
  }
  c.llc = machine.hierarchy_stats();
  c.device = machine.target().Stats();
  return c;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Media bytes over bytes received, 1.0 when nothing was written back (the
// DeviceStats::WriteAmplification convention).
double WriteAmp(double media_bytes, double received_bytes) {
  return received_bytes == 0.0 ? 1.0 : media_bytes / received_bytes;
}

// One round's values. Keys are metric names; "<name>@<config>" holds the
// per-config share of a summed metric.
using Values = std::map<std::string, double>;

struct KvPolicy {
  const char* name;  // the config name in metrics and spans
  KvWritePolicy policy;
};

// Adds the counter metrics of `c` to the round total and to `config`'s row.
void AddCounts(Values& v, const std::string& config, const SimCounts& c) {
  const std::pair<const char*, double> fields[] = {
      {"sim.accesses", static_cast<double>(c.Accesses())},
      {"sim.l1.hits", static_cast<double>(c.core.l1_hits)},
      {"sim.l1.misses", static_cast<double>(c.core.l1_misses)},
      {"sim.llc.hits", static_cast<double>(c.llc.llc_hits)},
      {"sim.llc.misses", static_cast<double>(c.llc.llc_misses)},
      {"sim.llc.evictions", static_cast<double>(c.llc.llc_evictions)},
      {"sim.llc.wbq_stall_cycles", static_cast<double>(c.llc.wbq_stall_cycles)},
      {"sim.llc.interventions", static_cast<double>(c.llc.interventions)},
      {"sim.llc.back_invalidations",
       static_cast<double>(c.llc.back_invalidations)},
      {"sim.llc.dir_upgrades", static_cast<double>(c.llc.dir_upgrades)},
      {"sim.device.media_bytes_written",
       static_cast<double>(c.device.media_bytes_written)},
      {"sim.device.bytes_received",
       static_cast<double>(c.device.bytes_received)},
      {"sim.device.directory_accesses",
       static_cast<double>(c.device.directory_accesses)},
      {"sim.core.fence_stall_cycles",
       static_cast<double>(c.core.fence_stall_cycles)},
      {"sim.core.publish_latency_sum",
       static_cast<double>(c.core.publish_latency_sum)},
      {"sim.core.prestores_clean", static_cast<double>(c.core.prestores_clean)},
      {"sim.core.nt_lines", static_cast<double>(c.core.nt_lines)},
      {"sim.core.cycles_wc_wait", static_cast<double>(c.core.cycles_wc_wait)},
      {"sim.core.cycles_load_miss",
       static_cast<double>(c.core.cycles_load_miss)},
  };
  for (const auto& [name, value] : fields) {
    v[name] += value;
    v[std::string(name) + "@" + config] += value;
  }
}

// Ratios derived from the summed counters, for the total and each config.
void DeriveRatios(Values& v, const std::vector<KvPolicy>& policies) {
  std::vector<std::string> suffixes = {""};
  for (const KvPolicy& p : policies) {
    suffixes.push_back(std::string("@") + p.name);
  }
  for (const std::string& s : suffixes) {
    const double l1 = v["sim.l1.hits" + s];
    const double llc = v["sim.llc.hits" + s];
    v["sim.l1.hit_ratio" + s] = Ratio(l1, l1 + v["sim.l1.misses" + s]);
    v["sim.llc.hit_ratio" + s] = Ratio(llc, llc + v["sim.llc.misses" + s]);
    v["sim.device.write_amp" + s] =
        WriteAmp(v["sim.device.media_bytes_written" + s],
                 v["sim.device.bytes_received" + s]);
  }
}

// ---- Host context -------------------------------------------------------------

std::string ReadFirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

// "always [madvise] never" -> "madvise".
std::string Bracketed(const std::string& s) {
  const size_t b = s.find('[');
  const size_t e = s.find(']');
  return b == std::string::npos || e == std::string::npos || e < b
             ? "unknown"
             : s.substr(b + 1, e - b - 1);
}

// The process's transparent-huge-page backed anonymous memory, in kB (-1
// when the kernel does not report it).
int64_t AnonHugePagesKb() {
  std::ifstream in("/proc/self/smaps_rollup");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("AnonHugePages:", 0) == 0) {
      return std::strtoll(line.c_str() + 14, nullptr, 10);
    }
  }
  return -1;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in kB
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

// Refuses builds whose timings would not describe what users run.
std::string BuildProblem() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (type.empty() || type == "Debug") {
    return "build type '" + type + "' is not optimised";
  }
  if (flags.find("-fsanitize") != std::string::npos) {
    return "sanitizer flags in '" + flags + "'";
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "compiled with a sanitizer";
#endif
#if defined(PRESTORE_CHECK_INVARIANTS)
  return "compiled with PRESTORE_CHECK_INVARIANTS";
#endif
#if !defined(__OPTIMIZE__)
  return "compiled without optimisation";
#endif
  return "";
}

// ---- Workloads --------------------------------------------------------------

// Work per round. "full" is what the benchmark records; "tiny" only proves
// that every metric is printed (smoke test).
struct Sizes {
  uint64_t kv_keys = 32768;  // 1 KB values: 32 MiB, 16x the 2 MiB LLC
  uint32_t kv_ops_per_thread = 6000;
  uint32_t kv_runs_per_config = 4;  // YcsbRun calls per preloaded machine
  uint32_t min_rounds = 3;
};

Sizes TinySizes() {
  Sizes s;
  s.kv_keys = 4096;
  s.kv_ops_per_thread = 1000;
  s.kv_runs_per_config = 2;
  s.min_rounds = 2;
  return s;
}

constexpr uint32_t kClientCores = 2;
constexpr uint32_t kValueSize = 1024;

// The per-call YCSB seed: the workload seed itself for the first call on a
// machine, then a fixed stream derived from it.
uint64_t CallSeed(uint64_t seed, uint32_t call) {
  return call == 0 ? seed : SplitMix64(seed ^ call).Next();
}

struct RoundOutcome {
  Values values;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> call_seconds;   // one per measured public call
  std::vector<double> setup_seconds;  // one per machine set up
  int64_t anon_huge_kb = -1;          // AnonHugePages after the first set-up
  std::vector<std::string> check_failures;
};

struct Workload {
  const char* name;
  MachineConfig machine;
  KvStoreKind kind;
  std::vector<KvPolicy> policies;  // baseline first
};

RoundOutcome KvRound(const Workload& w, const Sizes& sizes, uint64_t seed,
                     Tracer& tracer) {
  RoundOutcome out;
  Values& v = out.values;
  MachineConfig machine_cfg = w.machine;
  machine_cfg.num_cores = kClientCores;
  machine_cfg.target_region_bytes =
      std::max<uint64_t>(machine_cfg.target_region_bytes,
                         sizes.kv_keys * kValueSize * 2 + (256ULL << 20));
  std::map<std::string, YcsbResult> results;
  double run_s = 0.0;
  double mcycles = 0.0;
  for (const KvPolicy& p : w.policies) {
    const std::string cfg_name = p.name;
    SpanScope config_span(tracer, "config", cfg_name);
    YcsbConfig ycsb;
    ycsb.workload = YcsbWorkload::kA;
    ycsb.num_keys = sizes.kv_keys;
    ycsb.value_size = kValueSize;
    ycsb.threads = kClientCores;
    ycsb.ops_per_thread = sizes.kv_ops_per_thread;
    ycsb.policy = p.policy;

    std::unique_ptr<Machine> machine;
    std::unique_ptr<KvStore> store;
    double load_s = 0.0;
    out.setup_seconds.push_back(Timed(tracer, "setup", cfg_name, [&] {
      v["sim.machine_ctor_s"] +=
          Timed(tracer, "sim.machine_ctor", cfg_name,
                [&] { machine = std::make_unique<Machine>(machine_cfg); });
      Timed(tracer, "kv.store_ctor", cfg_name, [&] {
        if (w.kind == KvStoreKind::kClht) {
          store = std::make_unique<ClhtMap>(*machine, sizes.kv_keys / 2);
        } else {
          store = std::make_unique<Masstree>(*machine);
        }
      });
      load_s = Timed(tracer, "kv.load", cfg_name,
                     [&] { YcsbLoad(*machine, *store, ycsb); });
    }));
    if (out.anon_huge_kb < 0) {
      out.anon_huge_kb = AnonHugePagesKb();
    }
    v["kv.load_s"] += load_s;
    v["kv.load_keys"] += static_cast<double>(sizes.kv_keys);
    v["sim.load_accesses"] +=
        static_cast<double>(ReadCounts(*machine).Accesses());

    YcsbResult total;
    double cfg_run_s = 0.0;
    Timed(tracer, "measure", cfg_name, [&] {
      for (uint32_t call = 0; call < sizes.kv_runs_per_config; ++call) {
        ycsb.seed = CallSeed(seed, call);
        YcsbResult r;
        const double s = Timed(tracer, "kv.run", cfg_name, [&] {
          r = YcsbRun(*machine, *store, ycsb);
        });
        // YcsbRun resets the machine's stats when it starts, so the
        // counters read now cover exactly this call.
        AddCounts(v, cfg_name, ReadCounts(*machine));
        out.call_seconds.push_back(s);
        cfg_run_s += s;
        total.cycles += r.cycles;
        total.ops += r.ops;
        total.failed_gets += r.failed_gets;
      }
    });
    total.write_amplification =
        WriteAmp(v["sim.device.media_bytes_written@" + cfg_name],
                 v["sim.device.bytes_received@" + cfg_name]);
    results[cfg_name] = total;
    run_s += cfg_run_s;
    mcycles += static_cast<double>(total.cycles) * 1e-6;
    v["kv.run_s." + cfg_name] = cfg_run_s;
    v["kv.req_per_mcycle." + cfg_name] = total.ThroughputPerMcycle();
    v["kv.failed_gets"] += static_cast<double>(total.failed_gets);
    v["kv.ops"] += static_cast<double>(total.ops);
  }
  v["wall_s"] = run_s;
  v["sim.mcycles"] = mcycles;
  v["kv.load_us_per_key"] = Ratio(v["kv.load_s"] * 1e6, v["kv.load_keys"]);
  v["kv.run_us_per_op"] = Ratio(run_s * 1e6, v["kv.ops"]);
  v["sim.host_ns_per_access.load"] =
      Ratio(v["kv.load_s"] * 1e9, v["sim.load_accesses"]);
  v["sim.host_ns_per_access.run"] = Ratio(run_s * 1e9, v["sim.accesses"]);

  // Output checks: a config that fails one counts all its ops as failed.
  std::set<std::string> bad;
  for (const auto& [name, r] : results) {
    if (r.failed_gets != 0) {
      bad.insert(name);
      out.check_failures.push_back(name + ": " +
                                   std::to_string(r.failed_gets) +
                                   " failed GETs");
    }
  }
  const YcsbResult& base = results.at("baseline");
  for (const auto& [name, r] : results) {
    if (name == "baseline") {
      continue;
    }
    if (w.kind == KvStoreKind::kMasstree &&
        !(r.write_amplification < base.write_amplification)) {
      bad.insert(name);
      out.check_failures.push_back(
          name + ": write amp " + std::to_string(r.write_amplification) +
          " not below baseline's " +
          std::to_string(base.write_amplification));
    }
    if (w.kind == KvStoreKind::kClht &&
        !(r.ThroughputPerMcycle() > base.ThroughputPerMcycle())) {
      bad.insert(name);
      out.check_failures.push_back(
          name + ": " + std::to_string(r.ThroughputPerMcycle()) +
          " req/Mcycle does not beat baseline's " +
          std::to_string(base.ThroughputPerMcycle()));
    }
    v["kv.speedup." + name] =
        Ratio(r.ThroughputPerMcycle(), base.ThroughputPerMcycle());
  }
  for (const auto& [name, r] : results) {
    out.attempted += r.ops;
    out.failed += bad.count(name) != 0 ? r.ops : r.failed_gets;
  }
  return out;
}

std::vector<Workload> AllWorkloads() {
  return {
      {"kv-masstree-a",
       KvMachineA(),
       KvStoreKind::kMasstree,
       {{"baseline", KvWritePolicy::kBaseline},
        {"clean", KvWritePolicy::kClean},
        {"skip", KvWritePolicy::kSkip}}},
      {"kv-clht-bfast",
       MachineBFast(),
       KvStoreKind::kClht,
       {{"baseline", KvWritePolicy::kBaseline},
        {"clean", KvWritePolicy::kClean}}},
  };
}

// ---- Reporting --------------------------------------------------------------

std::string Num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", x);
  return buf;
}

struct WorkloadReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, const char*>> metrics;
};

WorkloadReport RunWorkload(const Workload& w, const Sizes& sizes,
                           uint64_t seed, double seconds, bool trace,
                           const std::string& trace_out,
                           const std::string& context_json) {
  Tracer tracer(trace, w.name);
  std::vector<Values> rounds;
  std::vector<double> call_seconds;
  WorkloadReport report;
  std::vector<double> setup_seconds;
  int64_t anon_huge_kb = -1;
  const auto start = Clock::now();
  // Rounds run whole. Another one starts only while it is expected to end
  // within the budget (judged by the longest round so far), so a run takes
  // --seconds, not --seconds plus most of a round.
  double longest_round = 0.0;
  while (rounds.size() < sizes.min_rounds ||
         Since(start) + longest_round <= seconds) {
    RoundOutcome o;
    const auto round_start = Clock::now();
    {
      SpanScope round_span(tracer, "round", "");
      o = KvRound(w, sizes, seed, tracer);
    }
    longest_round = std::max(longest_round, Since(round_start));
    if (anon_huge_kb < 0) {
      anon_huge_kb = o.anon_huge_kb;
    }
    setup_seconds.insert(setup_seconds.end(), o.setup_seconds.begin(),
                         o.setup_seconds.end());
    report.attempted += o.attempted;
    report.failed += o.failed;
    for (const std::string& f : o.check_failures) {
      std::printf("CHECK FAILED [%s round %zu] %s\n", w.name, rounds.size(),
                  f.c_str());
      report.correct = false;
    }
    call_seconds.insert(call_seconds.end(), o.call_seconds.begin(),
                        o.call_seconds.end());
    rounds.push_back(std::move(o.values));
  }

  for (Values& v : rounds) {
    DeriveRatios(v, w.policies);
    v["sim_maccess_per_s"] = Ratio(v["sim.accesses"] * 1e-6, v["wall_s"]);
  }
  std::map<std::string, std::vector<double>> series;
  for (const Values& v : rounds) {
    for (const auto& [k, x] : v) {
      series[k].push_back(x);
    }
  }
  // setup_s is one machine's set-up, so its samples are the set-ups
  // themselves (several per round on the kv workloads), not round sums.
  series["setup_s"] = setup_seconds;
  auto median_of = [&](const std::string& k) {
    auto it = series.find(k);
    return it == series.end() ? 0.0 : Median(it->second);
  };

  std::string trace_status;
  if (trace) {
    const bool ok = tracer.WriteChromeJson(trace_out, context_json);
    trace_status = ok ? trace_out : "FAILED to write " + trace_out;
    if (!ok) {
      report.correct = false;
    }
  }

  // Human-readable report: every metric with its unit (end-to-end ones with
  // their quartiles over the run's samples), then the simulated outputs.
  std::printf("== %s: %zu rounds, seed %llu, %s\n", w.name, rounds.size(),
              static_cast<unsigned long long>(seed),
              trace ? "traced" : "untraced");
  std::printf("context %s\n", context_json.c_str());
  std::printf("context.anon_huge_pages_kb_after_setup = %lld\n",
              static_cast<long long>(anon_huge_kb));
  for (const MetricDef& m : kEndToEnd) {
    const double x = std::string(m.name) == "peak_rss_mb" ? PeakRssMb()
                                                          : median_of(m.name);
    if (!trace) {
      report.metrics[m.name] = {x, m.unit};
    }
    if (series.count(m.name) != 0 && series[m.name].size() > 0) {
      const perfbench::Quartiles q = QuartilesOf(series[m.name]);
      std::printf(
          "metric %s = %s %s  (median of %zu samples, q1 %s, q3 %s, "
          "spread %.1f%%)\n",
          m.name, Num(x).c_str(), m.unit, series[m.name].size(),
          Num(q.q1).c_str(), Num(q.q3).c_str(), q.RelativeSpread() * 100.0);
    } else {
      std::printf("metric %s = %s %s\n", m.name, Num(x).c_str(), m.unit);
    }
  }
  std::printf("metric error_rate = %s ratio  (%llu failed of %llu attempted)\n",
              Num(Ratio(static_cast<double>(report.failed),
                        static_cast<double>(report.attempted)))
                  .c_str(),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  if (const auto tail = perfbench::HighestSupportedPercentile(call_seconds)) {
    std::printf("calls: %zu measured calls, median %s s, p%g %s s\n",
                call_seconds.size(), Num(Median(call_seconds)).c_str(),
                tail->percentile, Num(tail->value).c_str());
  } else {
    std::printf("calls: %zu measured calls, median %s s (too few for a tail "
                "percentile)\n",
                call_seconds.size(), Num(Median(call_seconds)).c_str());
  }
  if (trace) {
    const double overhead = tracer.OverheadSeconds();
    series["trace.overhead_s"] = {overhead};
    for (const MetricDef& m : kPerLayer) {
      const double x = median_of(m.name);
      report.metrics[m.name] = {x, m.unit};
      std::printf("layer %s = %s %s\n", m.name, Num(x).c_str(), m.unit);
      for (const KvPolicy& c : w.policies) {
        const std::string key = std::string(m.name) + "@" + c.name;
        if (series.count(key) != 0) {
          std::printf("layer %s[%s] = %s %s\n", m.name, c.name,
                      Num(median_of(key)).c_str(), m.unit);
        }
      }
    }
    std::printf("trace %s (%zu spans)\n", trace_status.c_str(),
                tracer.spans().size());
  }
  // Simulated outputs: checked every round, printed, never gated.
  for (const KvPolicy& p : w.policies) {
    const std::string c = p.name;
    std::printf("sim [%s] write_amp %s, req_per_mcycle %s\n", p.name,
                Num(median_of("sim.device.write_amp@" + c)).c_str(),
                Num(median_of("kv.req_per_mcycle." + c)).c_str());
  }
  return report;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: perfbench --workload=<kv-masstree-a|kv-clht-bfast|all> "
               "--seed=<n> --seconds=<s> --trace=<0|1>\n"
               "                 [--trace-out=<path>] [--size=<full|tiny>] "
               "[--git-commit=<sha>]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto unknown = flags.UnknownFlags({"workload", "seed", "seconds",
                                           "trace", "trace-out", "size",
                                           "git-commit"});
  if (flags.Has("help") || !unknown.empty() || !flags.Has("workload")) {
    for (const std::string& u : unknown) {
      std::fprintf(stderr, "unknown flag --%s\n", u.c_str());
    }
    PrintUsage();
    return 2;
  }
  const std::string problem = BuildProblem();
  if (!problem.empty()) {
    std::fprintf(stderr, "perfbench: refusing to record: %s\n",
                 problem.c_str());
    return 3;
  }
  const std::string workload = flags.GetString("workload", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string size = flags.GetString("size", "full");
  if (size != "full" && size != "tiny") {
    std::fprintf(stderr, "--size must be full or tiny\n");
    return 2;
  }
  const Sizes sizes = size == "tiny" ? TinySizes() : Sizes{};

  std::vector<Workload> selected;
  for (Workload& w : AllWorkloads()) {
    if (workload == "all" || workload == w.name) {
      selected.push_back(std::move(w));
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    PrintUsage();
    return 2;
  }

  std::ostringstream ctx;
  ctx << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"thp_enabled\":\""
      << Bracketed(ReadFirstLine("/sys/kernel/mm/transparent_hugepage/enabled"))
      << "\",\"thp_defrag\":\""
      << Bracketed(ReadFirstLine("/sys/kernel/mm/transparent_hugepage/defrag"))
      << "\",\"compiler\":\"" << JsonEscape(PERFBENCH_COMPILER)
      << "\",\"build_type\":\"" << JsonEscape(PERFBENCH_BUILD_TYPE)
      << "\",\"cxx_flags\":\"" << JsonEscape(PERFBENCH_CXX_FLAGS)
      << "\",\"git_commit\":\""
      << JsonEscape(flags.GetString("git-commit", "unknown"))
      << "\",\"seed\":" << seed << ",\"size\":\"" << size << "\"}";

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, const char*>> metrics;
  for (const Workload& w : selected) {
    std::string trace_out = flags.GetString("trace-out", "perfbench-trace");
    trace_out += std::string("-") + w.name + ".json";
    const WorkloadReport r =
        RunWorkload(w, sizes, seed, seconds, trace, trace_out, ctx.str());
    correct = correct && r.correct && r.failed == 0;
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& [k, x] : r.metrics) {
      metrics[selected.size() == 1 ? k : std::string(w.name) + "/" + k] = x;
    }
  }

  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, x] : metrics) {
    out << (first ? "" : ", ") << "\"" << k << "\": {\"value\": "
        << Num(x.first) << ", \"unit\": \"" << x.second << "\"}";
    first = false;
  }
  out << "}}";
  std::printf("%s\n", out.str().c_str());
  return correct ? 0 : 1;
}
