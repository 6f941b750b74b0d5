// Replicated serving cluster under node-kill fault injection (DESIGN.md
// §11) — the headline robustness experiment.
//
// Three heterogeneous nodes (Machine A, B-Fast, B-Slow) serve an open-loop
// zipfian YCSB-A mix with 3-way replication, so every key lives on every
// node and a single kill can never lose an acknowledged write. The seeded
// fault plan kills one replica near the midpoint of the run; the run is
// split into steady / failure / recovered phases at the kill cycle (taken
// from the injector's expanded schedule, so phases line up with what was
// actually injected) and a detection horizon after it.
//
// The bench enforces the PR's acceptance bars and exits nonzero when one
// fails:
//  - determinism: two fresh runs from the same seed + fault plan produce
//    byte-identical request outcome logs (every cluster run is
//    deterministic — see the cluster_loadgen.cc header);
//  - zero lost acknowledged writes: every acked PUT is applied on a node
//    that was never killed;
//  - bounded failover: recovered-phase throughput >= 85% of steady, and
//    failure-phase p99 <= steady p99 + a config-derived failover bound
//    (every failed attempt costs one refusal round trip of 2x net latency,
//    a full pass over R replicas costs at most one capped backoff, and a
//    request makes at most max_attempts passes).
//
// Emits BENCH_serve_cluster.json (per-phase throughput, p99/p99.9) so the
// perf trajectory files cover the serving tier.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/robust/fault_injector.h"
#include "src/serve/cluster.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

constexpr const char* kPhaseNames[] = {"steady", "failure", "recovered"};

ServeConfig ClusterConfig(uint32_t ops_per_client, uint32_t clients) {
  ServeConfig cfg;
  cfg.ycsb.workload = YcsbWorkload::kA;  // 50% writes: replication stressed
  cfg.ycsb.num_keys = 4096;
  cfg.ycsb.value_size = 512;
  cfg.ycsb.threads = 2;  // drivers
  cfg.ycsb.ops_per_thread = ops_per_client;
  cfg.ycsb.arena_slots = 256;
  cfg.num_shards = 2;
  cfg.batch_max = 8;
  cfg.batch_window_cycles = 800;
  cfg.batched_clean = true;
  cfg.open_loop = true;
  // Moderate offered load: `clients` clients, one request each per
  // interval, spread over nodes*shards workers. Survivors absorb the dead
  // node's share mid-run, so steady-state utilization must leave headroom.
  cfg.open_loop_interval = 80000;
  cfg.max_inflight = 1;  // one request outstanding per client
  cfg.logical_clients = clients;
  cfg.cluster_nodes = 3;
  cfg.replication_factor = 3;
  cfg.virtual_nodes = 64;
  cfg.net_latency_cycles = 500;
  cfg.settle_cycles =
      cfg.open_loop_interval * static_cast<uint64_t>(ops_per_client) / 8;
  return cfg;
}

std::vector<MachineConfig> HeterogeneousNodes() {
  // num_cores is overridden by KvCluster with the cluster core budget.
  return {MachineA(1), MachineBFast(1), MachineBSlow(1)};
}

FaultPlan KillPlan(const ServeConfig& cfg, uint32_t victim) {
  // One kill window aimed at the midpoint of the client schedule. The
  // expanded start carries the plan's seeded jitter (±50% of the period);
  // the bench reads the ACTUAL start back from the injector's schedule.
  const uint64_t span =
      cfg.open_loop_interval * static_cast<uint64_t>(cfg.ycsb.ops_per_thread);
  FaultPlan plan;
  plan.seed = 29;
  plan.specs.push_back(FaultSpec{.kind = FaultKind::kNodeKill,
                                 .mean_period_cycles = span / 2,
                                 .duration_cycles = 1,  // kill: ignored
                                 .magnitude = 1.0,
                                 .count = 1,
                                 .node = victim});
  return plan;
}

uint64_t KillCycle(const FaultInjector& injector) {
  for (const FaultWindow& w : injector.schedule()) {
    if (w.kind == FaultKind::kNodeKill) {
      return w.start_cycle;
    }
  }
  return 0;
}

struct RunOutput {
  ClusterResult result;
  uint64_t kill_cycle = 0;
};

RunOutput RunOnce(const ServeConfig& cfg, uint32_t victim,
                  bool record_outcomes) {
  FaultInjector injector(KillPlan(cfg, victim));
  KvCluster cluster(cfg, HeterogeneousNodes(), &injector);
  RunOutput out;
  out.kill_cycle = KillCycle(injector);
  ClusterRunOptions options;
  // Failure phase: from the kill until every client has had time to mark
  // the dead node unhealthy and ride out one full backoff cap; after that
  // the detour cost is paid and throughput must be back.
  const uint64_t detect = 8 * kFailoverBackoffCapCycles;
  options.phase_marks = {out.kill_cycle, out.kill_cycle + detect};
  options.record_outcomes = record_outcomes;
  out.result = RunClusterYcsb(cluster, options);
  return out;
}

void PrintPhases(const ClusterResult& r) {
  TextTable t({"phase", "window_Mcyc", "ops", "gets", "puts", "ops/Mcycle",
               "get_p99", "get_p99.9", "put_p99", "put_p99.9"});
  for (size_t k = 0; k < r.phases.size(); ++k) {
    const ClusterPhase& p = r.phases[k];
    const char* name = k < 3 ? kPhaseNames[k] : p.name.c_str();
    char window[64];
    std::snprintf(window, sizeof(window), "%.1f..%.1f",
                  static_cast<double>(p.from) / 1e6,
                  static_cast<double>(p.to) / 1e6);
    t.AddRow(name, window, p.ops, p.gets, p.puts, p.throughput_per_mcycle,
             p.get_latency.p99, p.get_latency.p999, p.put_latency.p99,
             p.put_latency.p999);
  }
  t.Print(std::cout);
}

void PrintNodes(const ClusterResult& r) {
  TextTable t({"node", "machine", "fate", "served", "nacks", "repl_applied",
               "repl_skipped", "hints_s/r/d", "write_amp"});
  for (const NodeReport& n : r.nodes) {
    char hints[64];
    std::snprintf(hints, sizeof(hints), "%" PRIu64 "/%" PRIu64 "/%" PRIu64,
                  n.hints_stored, n.hints_replayed, n.hints_dropped);
    t.AddRow(n.node, n.machine_name,
             n.killed ? "killed" : (n.drained ? "drained" : "alive"),
             n.served, n.nacks, n.applied_replications, n.repl_skipped_dead,
             hints, n.write_amplification);
  }
  t.Print(std::cout);
}

void EmitJson(const std::string& path, const ServeConfig& cfg,
              uint32_t victim, uint64_t kill_cycle, const ClusterResult& r,
              bool deterministic) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"serve_cluster\",\n"
               "  \"nodes\": %u,\n"
               "  \"replication_factor\": %u,\n"
               "  \"clients\": %u,\n"
               "  \"ops_per_client\": %u,\n"
               "  \"open_loop_interval\": %" PRIu64 ",\n"
               "  \"net_latency_cycles\": %" PRIu64 ",\n"
               "  \"killed_node\": %u,\n"
               "  \"kill_cycle\": %" PRIu64 ",\n"
               "  \"deterministic_outcomes\": %s,\n"
               "  \"ops\": %" PRIu64 ",\n"
               "  \"failed_gets\": %" PRIu64 ",\n"
               "  \"gave_up\": %" PRIu64 ",\n"
               "  \"refusals\": %" PRIu64 ",\n"
               "  \"nacks\": %" PRIu64 ",\n"
               "  \"failovers\": %" PRIu64 ",\n"
               "  \"acked_puts\": %" PRIu64 ",\n"
               "  \"lost_acked_puts\": %" PRIu64 ",\n"
               "  \"phases\": [\n",
               cfg.cluster_nodes, cfg.replication_factor,
               cfg.logical_clients, cfg.ycsb.ops_per_thread,
               cfg.open_loop_interval, cfg.net_latency_cycles, victim,
               kill_cycle, deterministic ? "true" : "false", r.ops,
               r.failed_gets, r.gave_up, r.refusals, r.nacks, r.failovers,
               r.acked_puts, r.lost_acked_puts);
  for (size_t k = 0; k < r.phases.size(); ++k) {
    const ClusterPhase& p = r.phases[k];
    std::fprintf(out,
                 "    {\"phase\": \"%s\", \"from\": %" PRIu64
                 ", \"to\": %" PRIu64 ", \"ops\": %" PRIu64
                 ", \"throughput_per_mcycle\": %.3f,\n"
                 "     \"get_p99\": %.0f, \"get_p999\": %.0f, "
                 "\"put_p99\": %.0f, \"put_p999\": %.0f}%s\n",
                 k < 3 ? kPhaseNames[k] : p.name.c_str(), p.from, p.to,
                 p.ops, p.throughput_per_mcycle, p.get_latency.p99,
                 p.get_latency.p999, p.put_latency.p99, p.put_latency.p999,
                 k + 1 < r.phases.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const bool smoke = flags.Has("smoke");
  const uint32_t ops = static_cast<uint32_t>(
      flags.GetInt("ops", smoke ? 120 : 500));
  const uint32_t clients =
      static_cast<uint32_t>(flags.GetInt("clients", smoke ? 4 : 8));
  const uint32_t victim = static_cast<uint32_t>(flags.GetInt("victim", 1));
  const std::string out_path =
      flags.GetString("out", "BENCH_serve_cluster.json");

  const ServeConfig cfg = ClusterConfig(ops, clients);
  const std::string cfg_error = cfg.Validate();
  if (!cfg_error.empty()) {
    std::fprintf(stderr, "bad cluster config: %s\n", cfg_error.c_str());
    return 1;
  }

  std::cout << "=== Replicated cluster: kill 1 of " << cfg.cluster_nodes
            << " replicas mid-run (§11) ===\n\n";

  // Determinism self-check: two fresh clusters, same seed + fault plan,
  // byte-identical per-request outcome logs.
  const RunOutput run_a = RunOnce(cfg, victim, /*record_outcomes=*/true);
  const RunOutput run_b = RunOnce(cfg, victim, /*record_outcomes=*/true);
  const bool deterministic =
      run_a.result.outcome_log == run_b.result.outcome_log &&
      !run_a.result.outcome_log.empty();
  const ClusterResult& r = run_a.result;

  std::printf("node %u killed at run cycle %.1f Mcyc (seeded schedule)\n\n",
              victim, static_cast<double>(run_a.kill_cycle) / 1e6);
  PrintPhases(r);
  std::printf("\n");
  PrintNodes(r);
  std::printf(
      "\ntotals: %" PRIu64 " ops (%" PRIu64 " gets, %" PRIu64
      " puts), %" PRIu64 " refusals, %" PRIu64 " nacks, %" PRIu64
      " failovers, %" PRIu64 " gave up\n",
      r.ops, r.gets, r.puts, r.refusals, r.nacks, r.failovers, r.gave_up);

  // ---- Acceptance bars ----
  int failures = 0;
  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: outcome logs differ between two identical runs "
                 "(%zu vs %zu bytes)\n",
                 run_a.result.outcome_log.size(),
                 run_b.result.outcome_log.size());
    ++failures;
  } else {
    std::printf("determinism: ok (two runs, identical %zu-byte outcome "
                "logs)\n",
                r.outcome_log.size());
  }

  if (r.lost_acked_puts != 0) {
    std::fprintf(stderr,
                 "FAIL: %" PRIu64 " acked PUTs not applied on any live "
                 "node\n",
                 r.lost_acked_puts);
    ++failures;
  } else {
    std::printf("durability: ok (%" PRIu64
                " acked PUTs, 0 lost on live nodes)\n",
                r.acked_puts);
  }

  if (r.gave_up != 0) {
    std::fprintf(stderr,
                 "FAIL: %" PRIu64 " requests abandoned (R=3 with one kill "
                 "must leave 2 live replicas)\n",
                 r.gave_up);
    ++failures;
  }

  if (r.phases.size() == 3) {
    const ClusterPhase& steady = r.phases[0];
    const ClusterPhase& failure = r.phases[1];
    const ClusterPhase& recovered = r.phases[2];
    const double bar = 0.85 * steady.throughput_per_mcycle;
    if (recovered.throughput_per_mcycle < bar) {
      std::fprintf(stderr,
                   "FAIL: recovered throughput %.2f < 85%% of steady %.2f "
                   "ops/Mcycle\n",
                   recovered.throughput_per_mcycle,
                   steady.throughput_per_mcycle);
      ++failures;
    } else {
      std::printf("recovery: ok (recovered %.2f vs steady %.2f ops/Mcycle, "
                  "bar 85%%)\n",
                  recovered.throughput_per_mcycle,
                  steady.throughput_per_mcycle);
    }
    // Config-derived failover bound: each failed attempt costs one 2x-net
    // refusal round trip; each full pass over the replica set costs at
    // most one capped backoff; at most max_attempts passes.
    const double bound =
        static_cast<double>(cfg.max_attempts) *
            (2.0 * static_cast<double>(cfg.net_latency_cycles) *
                 cfg.replication_factor +
             static_cast<double>(kFailoverBackoffCapCycles));
    const double worst_steady =
        std::max(steady.get_latency.p99, steady.put_latency.p99);
    const double worst_failure =
        std::max(failure.get_latency.p99, failure.put_latency.p99);
    if (worst_failure > worst_steady + bound) {
      std::fprintf(stderr,
                   "FAIL: failure-phase p99 %.0f exceeds steady p99 %.0f + "
                   "failover bound %.0f\n",
                   worst_failure, worst_steady, bound);
      ++failures;
    } else {
      std::printf("bounded p99: ok (failure %.0f <= steady %.0f + bound "
                  "%.0f cycles)\n",
                  worst_failure, worst_steady, bound);
    }
  } else {
    std::fprintf(stderr, "FAIL: expected 3 phases, got %zu\n",
                 r.phases.size());
    ++failures;
  }

  EmitJson(out_path, cfg, victim, run_a.kill_cycle, r, deterministic);

  if (failures != 0) {
    std::fprintf(stderr, "\n%d acceptance bar(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall acceptance bars passed\n");
  return 0;
}
