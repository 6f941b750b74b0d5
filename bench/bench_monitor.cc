// Monitored-governor tier (DESIGN.md §13): does the online region monitor
// recover misuse/useless pre-store overhead on workloads it was NOT
// profiled on, and what does the monitoring itself cost?
//
// Four sections, each with a hard gate (non-zero exit on failure):
//  1. Misuse recovery: the FT fftz2 misuse (§7.4.2) under the monitored
//     governor. Nothing was tuned for FT — the monitor discovers the
//     rewritten-while-resident scratch region and suppresses its cleans.
//     Gate: >= 50% of the naive slowdown recovered.
//  2. Useless-hint overhead: NAS kernels on Machine B (no fences, no
//     amplification headroom). Monitoring must not add measurable cost on
//     top of the already-useless hints. Gate: monitored run within 1% of
//     the useless-prestore baseline.
//  3. Monitored serving: a governed+monitored YCSB run reporting write
//     amplification and the sweep Prestore calls the monitor gated.
//  4. Determinism: sliced replay with the monitor attached, twice —
//     machine digest AND monitor digest must be byte-identical.
//
// Usage: bench_monitor [--quick] [--out=BENCH_monitor.json]
#include <cstdio>
#include <iostream>
#include <string>

#include "src/monitor/region_monitor.h"
#include "src/nas/ft.h"
#include "src/nas/nas_common.h"
#include "src/robust/governor.h"
#include "src/serve/loadgen.h"
#include "src/serve/server.h"
#include "src/sim/harness.h"
#include "src/sim/replay.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

double RecoveredPct(uint64_t base, uint64_t naive, uint64_t monitored) {
  if (naive <= base) {
    return 0.0;  // no gap to recover
  }
  return static_cast<double>(naive - monitored) /
         static_cast<double>(naive - base) * 100.0;
}

// Monitor tuned only by generic knobs (nothing FT- or NAS-specific): a
// short aggregation interval so verdicts land within the small bench runs.
MonitorConfig BenchMonitorConfig() {
  MonitorConfig cfg;
  cfg.sample_period = 16;
  cfg.aggregation_samples = 256;
  cfg.max_regions = 64;
  return cfg;
}

GovernorConfig MonitoredGovernorConfig() {
  GovernorConfig cfg;
  // Same shortened global window as bench_overhead_useless: the global
  // useless-overhead gate applies with and without a region advisor.
  cfg.global_eval_window = 128;
  return cfg;
}

struct MonitoredRun {
  uint64_t cycles = 0;
  std::string monitor_summary;  // monitored runs only
};

// Runs one FT configuration; when `monitored`, the adaptive monitor covers
// the whole target heap (it has no idea where the fftz2 scratch lives — it
// must find the bad region itself) and advises a kMonitored governor.
MonitoredRun RunFt(FtPatch patch, bool monitored, uint32_t scale) {
  Machine machine(MachineA(1));
  FtKernel kernel(machine, NasPrestore::kOff, scale, patch);
  PrestoreGovernor governor(machine, monitored ? MonitoredGovernorConfig()
                                               : GovernorConfig{});
  RegionMonitor monitor(machine, BenchMonitorConfig());
  if (monitored) {
    monitor.Monitor(kTargetBase, kTargetBase + machine.target_allocated());
    governor.SetRegionAdvisor(&monitor);
    monitor.Attach();
    governor.Attach();
  }
  MonitoredRun run;
  run.cycles = RunOnCore(machine, [&](Core& core) { kernel.Run(core); });
  if (monitored) {
    run.monitor_summary = monitor.Summary();
  }
  return run;
}

uint64_t RunNasMonitored(const std::string& name, NasPrestore mode,
                         bool monitored) {
  Machine machine(NasBenchMachineBFast());
  auto kernel = MakeNasKernel(name, machine, mode);
  PrestoreGovernor governor(machine, monitored ? MonitoredGovernorConfig()
                                               : GovernorConfig{});
  RegionMonitor monitor(machine, BenchMonitorConfig());
  if (monitored) {
    monitor.Monitor(kTargetBase, kTargetBase + machine.target_allocated());
    governor.SetRegionAdvisor(&monitor);
    monitor.Attach();
    governor.Attach();
  }
  return RunOnCore(machine, [&](Core& core) { kernel->Run(core); });
}

struct SliceDigests {
  uint64_t machine = 0;
  uint64_t monitor = 0;
};

// Sliced replay with the monitor attached: the end state must be the same
// on every run (the contract bench_sim_throughput pins for the bare engine,
// extended to the sampling + aggregation path).
SliceDigests MonitoredSliceDigest(bool quick) {
  Machine machine(MachineA(4));
  ReplayTraceConfig tcfg;
  tcfg.workers = 4;
  tcfg.ops_per_worker = quick ? 20000 : 80000;
  tcfg.zipf_theta = 0.0;  // integer-only key stream: host-portable digests
  const ReplayTrace trace = GenerateReplayTrace(machine, tcfg);

  RegionMonitor monitor(machine, BenchMonitorConfig());
  monitor.Monitor(kTargetBase, kTargetBase + machine.target_allocated());
  monitor.Attach();

  ReplaySliced(machine, trace);

  SliceDigests d;
  d.machine = DigestMachine(machine, tcfg.workers);
  d.monitor = monitor.DigestState();
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::cout <<
        "bench_monitor: monitored-governor recovery / overhead /\n"
        "determinism gates (DESIGN.md §13).\n"
        "  --quick            smaller runs (CI smoke tier)\n"
        "  --out=FILE         JSON results (BENCH_monitor.json)\n"
        "  --help             this text\n";
    return 0;
  }
  const auto unknown = flags.UnknownFlags({"quick", "out"});
  if (!unknown.empty()) {
    for (const std::string& flag : unknown) {
      std::cerr << "unknown flag --" << flag << "\n";
    }
    std::cerr << "run with --help for the flag list\n";
    return 1;
  }
  const bool quick = flags.GetBool("quick", false);
  const std::string out_path = flags.GetString("out", "BENCH_monitor.json");
  bool ok = true;

  std::cout << "=== monitored governor: online region monitor driving "
               "per-region pre-store policy ===\n\n";

  // ---- 1. Misuse recovery on an unprofiled workload ----
  std::cout << "[1/4] FT fftz2 misuse (unprofiled): monitor must find and "
               "suppress the rewritten scratch\n";
  const uint32_t ft_scale = 1;
  const uint64_t ft_base = RunFt(FtPatch::kNone, false, ft_scale).cycles;
  const uint64_t ft_naive =
      RunFt(FtPatch::kFftz2Clean, false, ft_scale).cycles;
  const MonitoredRun ft_mon_run = RunFt(FtPatch::kFftz2Clean, true, ft_scale);
  const uint64_t ft_mon = ft_mon_run.cycles;
  const double ft_recovered = RecoveredPct(ft_base, ft_naive, ft_mon);
  {
    TextTable t({"config", "cycles", "vs_base"});
    t.AddRow("base (no patch)", ft_base, 1.0);
    t.AddRow("naive fftz2 clean", ft_naive,
             static_cast<double>(ft_naive) / ft_base);
    t.AddRow("monitored governor", ft_mon,
             static_cast<double>(ft_mon) / ft_base);
    t.Print(std::cout);
    std::cout << "recovered: " << ft_recovered << "% (gate: >= 50%)\n"
              << ft_mon_run.monitor_summary;
  }
  if (ft_recovered < 50.0) {
    std::cerr << "FAIL: monitored governor recovered " << ft_recovered
              << "% of the fftz2 misuse gap (< 50%)\n";
    ok = false;
  }

  // ---- 2. Monitoring overhead on the useless-prestore regime ----
  // Same yardstick as bench_overhead_useless: the governed run is measured
  // against the un-prestored base. The monitored governor must end within
  // 1% of base — it recovers the useless-hint overhead without charging
  // measurable monitoring cost of its own (sampling adds zero simulated
  // cycles; only bad policy could show up here).
  std::cout << "\n[2/4] useless-hint regime (Machine B): monitored run must "
               "land within 1% of the un-prestored base\n";
  TextTable u({"workload", "base_cycles", "useless_cycles",
               "monitored_cycles", "useless_%", "monitored_%"});
  double worst_overhead = -100.0;
  const char* kernels_full[] = {"mg", "ft", "sp"};
  const char* kernels_quick[] = {"mg"};
  const size_t nk = quick ? 1 : 3;
  const char* const* kernels = quick ? kernels_quick : kernels_full;
  for (size_t i = 0; i < nk; ++i) {
    const uint64_t base = RunNasMonitored(kernels[i], NasPrestore::kOff,
                                          false);
    const uint64_t useless = RunNasMonitored(kernels[i], NasPrestore::kOn,
                                             false);
    const uint64_t monitored = RunNasMonitored(kernels[i], NasPrestore::kOn,
                                               true);
    const double overhead =
        (static_cast<double>(monitored) / base - 1.0) * 100.0;
    worst_overhead = overhead > worst_overhead ? overhead : worst_overhead;
    u.AddRow(std::string("NAS ") + kernels[i], base, useless, monitored,
             (static_cast<double>(useless) / base - 1.0) * 100.0, overhead);
  }
  u.Print(std::cout);
  std::cout << "worst monitored overhead vs base: " << worst_overhead
            << "% (gate: < 1%)\n";
  if (worst_overhead >= 1.0) {
    std::cerr << "FAIL: monitored-governor overhead " << worst_overhead
              << "% vs the un-prestored base (>= 1%)\n";
    ok = false;
  }

  // ---- 3. Monitored serving ----
  std::cout << "\n[3/4] governed+monitored YCSB serving (write "
               "amplification + gated sweeps)\n";
  double serve_amp = 0.0;
  uint64_t serve_gated = 0;
  {
    ServeConfig cfg;
    cfg.ycsb.workload = YcsbWorkload::kA;
    cfg.ycsb.num_keys = quick ? 512 : 2048;
    cfg.ycsb.value_size = 256;
    cfg.ycsb.threads = 2;
    cfg.ycsb.ops_per_thread = quick ? 300 : 1500;
    cfg.ycsb.arena_slots = 64;
    cfg.num_shards = 2;
    cfg.governed = true;
    cfg.monitored = true;
    cfg.monitor = BenchMonitorConfig();
    Machine machine(MachineA(cfg.num_shards + cfg.ycsb.threads));
    KvServer server(machine, cfg);
    const ServeResult r = ServeYcsb(machine, server);
    serve_amp = r.write_amplification;
    serve_gated = server.TotalSweepsGated();
    TextTable s({"metric", "value"});
    s.AddRow("requests answered", r.ops);
    s.AddRow("media write amplification", r.write_amplification);
    s.AddRow("sweeps gated by monitor", serve_gated);
    s.AddRow("monitor suppressed (governor)",
             server.governor()->TakeSnapshot().suppressed_by_monitor);
    s.Print(std::cout);
  }

  // ---- 4. Determinism across runs ----
  std::cout << "\n[4/4] sliced-replay determinism with the monitor attached "
               "(two runs)\n";
  const SliceDigests d1 = MonitoredSliceDigest(quick);
  const SliceDigests d2 = MonitoredSliceDigest(quick);
  std::printf("  run 1: machine=%016llx monitor=%016llx\n",
              static_cast<unsigned long long>(d1.machine),
              static_cast<unsigned long long>(d1.monitor));
  std::printf("  run 2: machine=%016llx monitor=%016llx\n",
              static_cast<unsigned long long>(d2.machine),
              static_cast<unsigned long long>(d2.monitor));
  if (d1.machine != d2.machine || d1.monitor != d2.monitor) {
    std::cerr << "FAIL: monitored sliced replay differs between runs\n";
    ok = false;
  } else {
    std::cout << "  byte-identical\n";
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"monitor\",\n"
               "  \"quick\": %s,\n"
               "  \"ft_base_cycles\": %llu,\n"
               "  \"ft_naive_cycles\": %llu,\n"
               "  \"ft_monitored_cycles\": %llu,\n"
               "  \"ft_recovered_pct\": %.2f,\n"
               "  \"useless_worst_overhead_pct\": %.4f,\n"
               "  \"serve_write_amplification\": %.4f,\n"
               "  \"serve_sweeps_gated\": %llu,\n"
               "  \"digest_machine\": \"%016llx\",\n"
               "  \"digest_monitor\": \"%016llx\",\n"
               "  \"ok\": %s\n"
               "}\n",
               quick ? "true" : "false",
               static_cast<unsigned long long>(ft_base),
               static_cast<unsigned long long>(ft_naive),
               static_cast<unsigned long long>(ft_mon),
               ft_recovered, worst_overhead, serve_amp,
               static_cast<unsigned long long>(serve_gated),
               static_cast<unsigned long long>(d1.machine),
               static_cast<unsigned long long>(d1.monitor),
               ok ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!ok) {
    std::cerr << "\nFAIL: one or more monitor gates failed\n";
    return 1;
  }
  std::cout << "\nOK\n";
  return 0;
}
