// Command-line front end for the replicated serving cluster (DESIGN.md
// §11): builds an N-node heterogeneous cluster with R-way replication,
// optionally schedules deterministic node faults (kill / drain / degrade),
// drives an open-loop YCSB mix through the consistent-hash router, and
// reports per-phase throughput and tail latency, per-node fates, and the
// zero-lost-acked-writes check.
//
// Examples:
//   kv_cluster_cli --nodes=3 --replication=3 --kill_node=1 --kill_at=50
//   kv_cluster_cli --nodes=4 --replication=2 --drain_node=2
//       --drain_at=30 --drain_pct=20 --governed   (one line)
//   kv_cluster_cli --smoke           # small deterministic failover run
#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "src/robust/fault_injector.h"
#include "src/serve/cluster.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

YcsbWorkload ParseWorkload(const std::string& name) {
  if (name == "a") return YcsbWorkload::kA;
  if (name == "b") return YcsbWorkload::kB;
  if (name == "c") return YcsbWorkload::kC;
  if (name == "f") return YcsbWorkload::kF;
  return YcsbWorkload::kA;
}

// Cycle through the heterogeneous presets so any node count exercises
// machine diversity (node 0 = A, 1 = B-Fast, 2 = B-Slow, 3 = A, ...).
std::vector<MachineConfig> NodeMachines(uint32_t nodes) {
  std::vector<MachineConfig> configs;
  for (uint32_t n = 0; n < nodes; ++n) {
    switch (n % 3) {
      case 0:
        configs.push_back(MachineA(1));
        break;
      case 1:
        configs.push_back(MachineBFast(1));
        break;
      default:
        configs.push_back(MachineBSlow(1));
        break;
    }
  }
  return configs;
}

// Pin a single fault window at `at` run-relative cycles: a one-window spec
// with zero jitter room would still be jittered by ±50% of the period, so
// aim the mean at 2/3 of the target and accept the seeded placement — the
// CLI reports the actual scheduled cycle afterwards.
void AddFault(FaultPlan* plan, FaultKind kind, uint32_t node, uint64_t at,
              uint64_t duration, double magnitude) {
  plan->specs.push_back(FaultSpec{.kind = kind,
                                  .mean_period_cycles = std::max<uint64_t>(
                                      1, at),
                                  .duration_cycles = duration,
                                  .magnitude = magnitude,
                                  .count = 1,
                                  .node = node});
}

void PrintUsage() {
  std::cout <<
      "kv_cluster_cli: run one replicated serving-cluster experiment\n"
      "(N heterogeneous nodes, R-way replication, deterministic node\n"
      "faults, per-phase throughput / tail latency report).\n"
      "\n"
      "Workload:\n"
      "  --workload=a|b|c|f   YCSB mix (default a)\n"
      "  --keys=N             keys preloaded per run (4096)\n"
      "  --value_size=N       bytes per value (512)\n"
      "  --drivers=N          driver threads multiplexing clients (2)\n"
      "  --clients=N          logical open-loop clients (8)\n"
      "  --ops=N              requests per logical client (500)\n"
      "  --arena_slots=N      per-shard value-ring slots (256)\n"
      "  --zipf_theta=F       key-popularity skew\n"
      "  --seed=N             workload seed (42)\n"
      "\n"
      "Cluster:\n"
      "  --nodes=N            node machines (3)\n"
      "  --replication=N      replicas per key (3)\n"
      "  --virtual_nodes=N    ring points per node, power of two (64)\n"
      "  --ring_seed=N        consistent-hash ring seed\n"
      "  --shards=N           shard workers per node (2)\n"
      "  --net_latency=N      one-way inter-node hop, cycles (500)\n"
      "  --unhealthy_after=N  consecutive failures before backoff (2)\n"
      "  --max_attempts=N     replica-set passes before giving up (8)\n"
      "\n"
      "Serving:\n"
      "  --batch_max=N        requests per batch (8)\n"
      "  --batch_window=N     batch-open window, cycles (800)\n"
      "  --batched_clean=B    close batches with a clean sweep (true)\n"
      "  --governed           attach the adaptive pre-store governor\n"
      "  --interval=N         open-loop arrival interval, cycles (80000)\n"
      "  --inflight=N         open-loop outstanding cap (1)\n"
      "  --settle=N           exclude the first N cycles from latency\n"
      "\n"
      "Faults (node index >= 0 enables; --*_at are %% of the run span):\n"
      "  --kill_node=N --kill_at=P\n"
      "  --drain_node=N --drain_at=P --drain_pct=P\n"
      "  --degrade_node=N --degrade_at=P --degrade_pct=P\n"
      "  --degrade_cycles=F   added service cycles while degraded (20000)\n"
      "  --fault_seed=N       fault-window jitter seed (29)\n"
      "\n"
      "  --smoke              small deterministic failover run\n"
      "  --help               this text\n";
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    PrintUsage();
    return 0;
  }
  const auto unknown = flags.UnknownFlags(
      {"workload", "keys", "value_size", "drivers", "ops", "arena_slots",
       "zipf_theta", "seed", "shards", "batch_max", "batch_window",
       "batched_clean", "governed", "interval", "inflight", "clients",
       "nodes", "replication", "virtual_nodes", "ring_seed", "net_latency",
       "unhealthy_after", "max_attempts", "settle", "fault_seed",
       "kill_node", "kill_at", "drain_node", "drain_at", "drain_pct",
       "degrade_node", "degrade_at", "degrade_pct", "degrade_cycles",
       "smoke"});
  if (!unknown.empty()) {
    for (const std::string& flag : unknown) {
      std::cerr << "unknown flag --" << flag << "\n";
    }
    std::cerr << "run with --help for the flag list\n";
    return 1;
  }
  const bool smoke = flags.GetBool("smoke", false);
  const std::optional<std::string> workload =
      flags.GetChoice("workload", "a", "a|b|c|f");
  if (!workload) {
    return 1;
  }

  ServeConfig cfg;
  cfg.ycsb.workload = ParseWorkload(*workload);
  cfg.ycsb.num_keys =
      static_cast<uint64_t>(flags.GetInt("keys", smoke ? 2048 : 4096));
  cfg.ycsb.value_size =
      static_cast<uint32_t>(flags.GetInt("value_size", smoke ? 256 : 512));
  cfg.ycsb.threads =
      static_cast<uint32_t>(flags.GetInt("drivers", 2));
  cfg.ycsb.ops_per_thread =
      static_cast<uint32_t>(flags.GetInt("ops", smoke ? 120 : 500));
  cfg.ycsb.arena_slots =
      static_cast<uint32_t>(flags.GetInt("arena_slots", 256));
  cfg.ycsb.zipf_theta = flags.GetDouble("zipf_theta", cfg.ycsb.zipf_theta);
  cfg.ycsb.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  cfg.num_shards = static_cast<uint32_t>(flags.GetInt("shards", 2));
  cfg.batch_max = static_cast<uint32_t>(flags.GetInt("batch_max", 8));
  cfg.batch_window_cycles =
      static_cast<uint64_t>(flags.GetInt("batch_window", 800));
  cfg.batched_clean = flags.GetBool("batched_clean", true);
  cfg.governed = flags.GetBool("governed", false);
  cfg.open_loop = true;
  cfg.open_loop_interval =
      static_cast<uint64_t>(flags.GetInt("interval", 80000));
  cfg.max_inflight = static_cast<uint32_t>(flags.GetInt("inflight", 1));
  cfg.logical_clients =
      static_cast<uint32_t>(flags.GetInt("clients", smoke ? 4 : 8));
  cfg.cluster_nodes = static_cast<uint32_t>(flags.GetInt("nodes", 3));
  cfg.replication_factor =
      static_cast<uint32_t>(flags.GetInt("replication", 3));
  cfg.virtual_nodes =
      static_cast<uint32_t>(flags.GetInt("virtual_nodes", 64));
  cfg.ring_seed = static_cast<uint64_t>(
      flags.GetInt("ring_seed", static_cast<int64_t>(cfg.ring_seed)));
  cfg.net_latency_cycles =
      static_cast<uint64_t>(flags.GetInt("net_latency", 500));
  cfg.unhealthy_after =
      static_cast<uint32_t>(flags.GetInt("unhealthy_after", 2));
  cfg.max_attempts = static_cast<uint32_t>(flags.GetInt("max_attempts", 8));
  const uint64_t span = cfg.open_loop_interval *
                        static_cast<uint64_t>(cfg.ycsb.ops_per_thread);
  cfg.settle_cycles =
      static_cast<uint64_t>(flags.GetInt("settle", span / 8));

  const std::string error = cfg.Validate();
  if (!error.empty()) {
    std::cerr << "invalid configuration: " << error << "\n";
    return 1;
  }

  // Fault schedule: --kill_node / --drain_node / --degrade_node pick
  // victims; --*_at are percentages of the client schedule span. The smoke
  // run defaults to the bench's kill-1-of-3 failover scenario.
  FaultPlan plan;
  plan.seed = static_cast<uint64_t>(flags.GetInt("fault_seed", 29));
  int64_t kill_node = flags.GetInt("kill_node", smoke ? 1 : -1);
  if (kill_node >= 0) {
    AddFault(&plan, FaultKind::kNodeKill,
             static_cast<uint32_t>(kill_node),
             span * static_cast<uint64_t>(flags.GetInt("kill_at", 50)) / 100,
             1, 1.0);
  }
  const int64_t drain_node = flags.GetInt("drain_node", -1);
  if (drain_node >= 0) {
    AddFault(&plan, FaultKind::kNodeDrain,
             static_cast<uint32_t>(drain_node),
             span * static_cast<uint64_t>(flags.GetInt("drain_at", 30)) / 100,
             span * static_cast<uint64_t>(flags.GetInt("drain_pct", 20)) /
                 100,
             1.0);
  }
  const int64_t degrade_node = flags.GetInt("degrade_node", -1);
  if (degrade_node >= 0) {
    AddFault(&plan, FaultKind::kNodeDegrade,
             static_cast<uint32_t>(degrade_node),
             span * static_cast<uint64_t>(flags.GetInt("degrade_at", 30)) /
                 100,
             span * static_cast<uint64_t>(flags.GetInt("degrade_pct", 20)) /
                 100,
             flags.GetDouble("degrade_cycles", 20000.0));
  }

  FaultInjector injector(plan);
  KvCluster cluster(cfg, NodeMachines(cfg.cluster_nodes), &injector);

  std::cout << "kv_cluster_cli: nodes=" << cfg.cluster_nodes
            << " replication=" << cfg.replication_factor
            << " shards/node=" << cfg.num_shards
            << " clients=" << cluster.num_clients() << " over "
            << cfg.ycsb.threads << " drivers"
            << " ops/client=" << cfg.ycsb.ops_per_thread
            << " interval=" << cfg.open_loop_interval
            << (cfg.governed ? " governed" : "") << "\n";
  if (!injector.schedule().empty()) {
    std::cout << "fault schedule:\n";
    for (const FaultWindow& w : injector.schedule()) {
      std::cout << "  " << ToString(w.kind) << " node " << w.node << " @ ["
                << w.start_cycle << ", " << w.end_cycle << ")\n";
    }
  }
  std::cout << "\n";

  ClusterRunOptions options;
  // One mark per fault edge inside the run: phases line up with the
  // injected windows (kill has no end; drains/degrades contribute both).
  std::vector<uint64_t> marks;
  for (const FaultWindow& w : injector.schedule()) {
    if (w.start_cycle > 0 && w.start_cycle < span) {
      marks.push_back(w.start_cycle);
    }
    if (w.kind != FaultKind::kNodeKill && w.end_cycle < span) {
      marks.push_back(w.end_cycle);
    }
  }
  std::sort(marks.begin(), marks.end());
  marks.erase(std::unique(marks.begin(), marks.end()), marks.end());
  options.phase_marks = marks;
  const ClusterResult r = RunClusterYcsb(cluster, options);

  TextTable t({"phase", "from", "to", "ops", "ops/Mcycle", "get_p99",
               "get_p99.9", "put_p99", "put_p99.9"});
  for (const ClusterPhase& p : r.phases) {
    t.AddRow(p.name, p.from, p.to, p.ops, p.throughput_per_mcycle,
             p.get_latency.p99, p.get_latency.p999, p.put_latency.p99,
             p.put_latency.p999);
  }
  t.Print(std::cout);

  std::cout << "\n";
  TextTable n({"node", "machine", "fate", "served", "nacks", "repl_applied",
               "repl_skipped", "hints_stored", "hints_replayed",
               "hints_dropped", "write_amp"});
  for (const NodeReport& node : r.nodes) {
    n.AddRow(node.node, node.machine_name,
             node.killed ? "killed" : (node.drained ? "drained" : "alive"),
             node.served, node.nacks, node.applied_replications,
             node.repl_skipped_dead, node.hints_stored, node.hints_replayed,
             node.hints_dropped, node.write_amplification);
  }
  n.Print(std::cout);

  if (cfg.governed) {
    std::cout << "\nper-node per-shard policy (adaptive governor):\n";
    TextTable p({"node", "shard", "regions", "admitted", "suppressed",
                 "rewrites", "backoffs", "reopens"});
    for (const NodeReport& node : r.nodes) {
      for (const ShardPolicy& s : node.shard_policies) {
        p.AddRow(node.node, s.shard, s.regions, s.admitted, s.suppressed,
                 s.rewrites, s.backoffs, s.reopens);
      }
    }
    p.Print(std::cout);
  }

  std::cout << "\ntotals: " << r.ops << " ops (" << r.gets << " gets, "
            << r.puts << " puts), " << r.failed_gets << " failed gets, "
            << r.refusals << " refusals, " << r.nacks << " nacks, "
            << r.retries << " backpressure retries, " << r.failovers
            << " failovers, " << r.gave_up << " gave up\n"
            << "acked PUTs: " << r.acked_puts << ", lost on live nodes: "
            << r.lost_acked_puts << "\n";

  // Exit-code checks: every request resolves (no silent drops), and no
  // acknowledged write may be lost while a full replica set minus the
  // faulted nodes stays live.
  const uint64_t expected = static_cast<uint64_t>(cluster.num_clients()) *
                            cfg.ycsb.ops_per_thread;
  if (r.ops + r.gave_up != expected) {
    std::cerr << "\nFAIL: request accounting mismatch (resolved " << r.ops
              << " + abandoned " << r.gave_up << " != scheduled " << expected
              << ")\n";
    return 1;
  }
  if (r.lost_acked_puts != 0) {
    std::cerr << "\nFAIL: " << r.lost_acked_puts
              << " acked PUTs not applied on any live node\n";
    return 1;
  }
  if (smoke && r.gave_up != 0) {
    std::cerr << "\nFAIL: smoke failover run abandoned " << r.gave_up
              << " requests (2 live replicas must absorb the kill)\n";
    return 1;
  }
  std::cout << "\nOK\n";
  return 0;
}
