// YCSB against the sharded KV serving subsystem (DESIGN.md §9).
//
// Part 1 — the §4.1 sequential-eviction fix on the request path: an
// open-loop YCSB-A run at moderate load against the server in baseline and
// batched-clean configurations (plus batched-clean governed, which on this
// healthy workload should track the ungoverned one). Batched-clean must
// show lower media write amplification and no worse p99 latency: the
// batch-close sweep writes each crafted value back contiguously while it
// is still hot instead of letting lines trickle out of the LLC, so the
// media sees fewer amplified partial-block writes, carries less backlog,
// and the latency tail (which at this load is device queueing) shrinks.
// An unmeasured warmup window precedes each measured run; without it the
// percentiles measure the cold-start miss storm, not serving.
//
// Part 2 — PR 1's recovery bar, on the new request path: a write-heavy
// run whose tiny recycled arena turns the sweep into the Listing-3 misuse
// (clean, then rewrite while still resident), with latency-spike faults
// hammering the device. The governed server must recover >= 50% of the
// gap between the misused and the baseline server.
#include <algorithm>
#include <iostream>

#include "bench/run_configs.h"
#include "src/robust/fault_injector.h"
#include "src/serve/loadgen.h"
#include "src/serve/server.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

ServeConfig HealthyConfig(uint32_t ops_per_client) {
  ServeConfig cfg;
  cfg.ycsb.workload = YcsbWorkload::kA;
  cfg.ycsb.num_keys = 8192;  // 8 MiB of values: 4x the 2 MiB LLC
  cfg.ycsb.value_size = 1024;
  cfg.ycsb.threads = 4;
  cfg.ycsb.ops_per_thread = ops_per_client;
  cfg.ycsb.arena_slots = 512;
  cfg.num_shards = 4;
  cfg.batch_max = 8;
  cfg.batch_window_cycles = 800;
  // Open loop at a moderate offered load. Key skew concentrates traffic:
  // with zipf(0.99) the hottest shard sees ~2x its fair share, so the
  // interval must keep even that shard clearly below saturation (mean
  // service is ~19K cycles with a p99 near 255K) or the run turns
  // metastable — whether a backlog episode drains or compounds then
  // hinges on small changes to the arrival interleaving, and percentiles
  // flip with the seed. The
  // baseline still pays: its 3x-amplified media writes queue at the
  // device and stretch the tail. The first quarter of the run is a settle
  // window (excluded from percentiles): runs begin with a deterministic
  // queueing transient whose backlog takes many arrival intervals to
  // drain.
  cfg.open_loop = true;
  cfg.open_loop_interval = 80000;
  cfg.max_inflight = 8;
  cfg.settle_cycles = cfg.open_loop_interval * ops_per_client / 4;
  return cfg;
}

Machine HealthyMachine() {
  MachineConfig mc = MachineA(8);
  mc.target.media_cycles_per_byte = 1.2;  // media-bound, as in the kv benches
  return Machine(mc);
}

// Governor tuning for the healthy serving deployment. QuadAge keeps hot
// arena lines LLC-resident, so even a well-behaved serving mix sustains a
// 10-20% rewrite-after-clean rate on its hottest regions (the sweep still
// pays off: most lines evict long before their arena slot recycles). Both
// thresholds must clear that floor — backoff even after device pressure
// halves it (the startup transient's backlog exceeds the pressure bar), and
// reopen outright — or one transient backoff becomes permanent: the
// bottleneck shard's cleans stay suppressed, its values trickle-evict with
// amplified partial-block writes, and the whole server degenerates to the
// baseline's latency (serve_fault_test documents the same residency
// leakage).
GovernorConfig HealthyGovernor() {
  GovernorConfig cfg;
  cfg.backoff_rewrite_rate = 0.7;  // pressure-scaled: 0.35, above the floor
  cfg.reopen_rewrite_rate = 0.35;
  return cfg;
}

ServeConfig MisuseConfig() {
  ServeConfig cfg;
  cfg.ycsb.workload = YcsbWorkload::kA;  // 50% writes: the rewrite storm
  cfg.ycsb.num_keys = 2048;
  cfg.ycsb.value_size = 1024;
  cfg.ycsb.threads = 2;
  cfg.ycsb.ops_per_thread = 600;
  cfg.ycsb.arena_slots = 16;  // recycles every 16 PUTs: Listing-3 misuse
  cfg.num_shards = 1;
  cfg.batch_max = 4;
  cfg.batch_window_cycles = 500;
  return cfg;
}

GovernorConfig ServeGovernor() {
  GovernorConfig cfg;
  cfg.window_hints = 8;  // verdict within ~one arena lap
  cfg.probe_period = 16;
  cfg.probe_window = 4;
  cfg.global_eval_window = 64;
  cfg.backoff_confirm_windows = 1;
  return cfg;
}

FaultPlan SpikePlan() {
  FaultPlan plan;
  plan.seed = 7;
  plan.specs.push_back(FaultSpec{.kind = FaultKind::kLatencySpike,
                                 .mean_period_cycles = 60000,
                                 .duration_cycles = 25000,
                                 .magnitude = 400.0,
                                 .count = 10});
  return plan;
}

double RecoveredPct(uint64_t base, uint64_t naive, uint64_t governed) {
  if (naive <= base) {
    return 0.0;  // no gap to recover
  }
  return static_cast<double>(naive - governed) /
         static_cast<double>(naive - base) * 100.0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const uint32_t ops = static_cast<uint32_t>(
      flags.GetInt("ops", flags.Has("smoke") ? 150 : 1200));

  // The three healthy-server configs (baseline, batched clean, governed
  // batched clean), then the same three as a misused sweep under
  // latency-spike faults.
  const auto results = RunConfigs(6, [&](size_t i) {
    Machine machine = HealthyMachine();
    const bool batched_clean = i % 3 != 0;
    const bool governed = i % 3 == 2;
    if (i < 3) {
      ServeConfig cfg = HealthyConfig(ops);
      cfg.batched_clean = batched_clean;
      cfg.governed = governed;
      if (governed) {
        cfg.governor = HealthyGovernor();
      }
      KvServer server(machine, cfg);
      // Unmeasured warmup: first pass populates the index, caches, and
      // XPBuffers; the second (measured) pass sees steady state.
      const uint32_t warmup = std::max(100u, ops / 3);
      server.SetWorkload(cfg.ycsb.workload, warmup);
      ServeYcsb(machine, server);
      server.SetWorkload(cfg.ycsb.workload, ops);
      return ServeYcsb(machine, server);
    }
    ServeConfig cfg = MisuseConfig();
    cfg.ycsb.ops_per_thread = std::min(cfg.ycsb.ops_per_thread, ops * 2);
    cfg.batched_clean = batched_clean;
    cfg.governed = governed;
    if (governed) {
      cfg.governor = ServeGovernor();
    }
    KvServer server(machine, cfg);
    FaultInjector injector(SpikePlan());
    injector.Attach(machine);
    return ServeYcsb(machine, server);
  });

  std::cout << "=== YCSB-A against the sharded KV server (§9) ===\n\n";
  {
    TextTable t({"config", "ops", "write_amp", "get_p50", "get_p99",
                 "get_p99.9", "put_p99", "put_p99.9", "batch_fill",
                 "ops/Mcycle"});
    const char* const names[] = {"baseline (no sweep)", "batched-clean",
                                 "batched-clean governed"};
    for (size_t k = 0; k < 3; ++k) {
      const ServeResult& r = results[k];
      t.AddRow(names[k], r.ops, r.write_amplification, r.get_latency.p50,
               r.get_latency.p99, r.get_latency.p999, r.put_latency.p99,
               r.put_latency.p999, r.BatchFill(), r.ThroughputPerMcycle());
    }
    const ServeResult& base = results[0];
    const ServeResult& clean = results[1];
    t.Print(std::cout);
    std::cout << "\nbatched-clean vs baseline: "
              << (base.write_amplification / clean.write_amplification - 1) *
                     100
              << "% less media write amplification, p99 GET "
              << (clean.get_latency.p99 <= base.get_latency.p99 ? "no worse"
                                                                : "WORSE")
              << " (" << clean.get_latency.p99 << " vs "
              << base.get_latency.p99 << " cycles)\n";
  }

  std::cout << "\n=== Misused sweep under latency-spike faults (§7.4.2 on "
               "the request path) ===\n\n";
  {
    TextTable t({"config", "cycles", "write_amp", "put_p99", "backoffs",
                 "suppressed", "recovered_%"});
    const ServeResult& base = results[3];
    const ServeResult& naive = results[4];
    const ServeResult& governed = results[5];
    uint64_t backoffs = 0;
    uint64_t suppressed = 0;
    for (const ShardPolicy& p : governed.shard_policies) {
      backoffs += p.backoffs;
      suppressed += p.suppressed;
    }
    const double recovered =
        RecoveredPct(base.cycles, naive.cycles, governed.cycles);
    t.AddRow("base (no sweep)", base.cycles, base.write_amplification,
             base.put_latency.p99, 0, 0, "-");
    t.AddRow("naive sweep (misuse)", naive.cycles, naive.write_amplification,
             naive.put_latency.p99, 0, 0, "-");
    t.AddRow("governed sweep", governed.cycles,
             governed.write_amplification, governed.put_latency.p99, backoffs,
             suppressed, recovered);
    t.Print(std::cout);
    std::cout << "\ngoverned server recovered " << recovered
              << "% of the misuse gap (bar: >= 50%)\n";
  }
  return 0;
}
