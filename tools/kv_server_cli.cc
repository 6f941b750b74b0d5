// Command-line front end for the sharded KV serving subsystem (DESIGN.md
// §9): runs one full load experiment — preload, serve a YCSB mix from
// closed- or open-loop clients, report throughput / tail latency / media
// write amplification and (when governed) the per-shard policy decisions.
//
// Examples:
//   kv_server_cli --workload=a --shards=4 --clients=4 --ops=2000
//   kv_server_cli --workload=b --open_loop --interval=400 --governed
//   kv_server_cli --smoke            # small deterministic sanity run
#include <iostream>
#include <optional>
#include <string>

#include "src/serve/loadgen.h"
#include "src/serve/server.h"
#include "src/util/cli.h"
#include "src/util/table.h"

using namespace prestore;

namespace {

YcsbWorkload ParseWorkload(const std::string& name) {
  if (name == "a") return YcsbWorkload::kA;
  if (name == "b") return YcsbWorkload::kB;
  if (name == "c") return YcsbWorkload::kC;
  if (name == "d") return YcsbWorkload::kD;
  if (name == "f") return YcsbWorkload::kF;
  return YcsbWorkload::kA;
}

const char* StateName(const ShardPolicy& p) {
  return p.backed_off_regions > 0 ? "backoff" : "open";
}

void PrintUsage() {
  std::cout <<
      "kv_server_cli: run one sharded-KV serving experiment (preload, YCSB\n"
      "mix, throughput / tail latency / write amplification report).\n"
      "\n"
      "Workload:\n"
      "  --workload=a|b|c|d|f YCSB mix (default a)\n"
      "  --keys=N             keys preloaded per run (8192)\n"
      "  --value_size=N       bytes per value (1024)\n"
      "  --clients=N          client cores (4)\n"
      "  --ops=N              requests per client (1000)\n"
      "  --arena_slots=N      per-shard value-ring slots (512)\n"
      "  --zipf_theta=F       key-popularity skew\n"
      "  --seed=N             workload seed (42)\n"
      "\n"
      "Server:\n"
      "  --index=clht|masstree\n"
      "  --shards=N           shard worker cores (4)\n"
      "  --queue_slots=N      admission queue capacity, power of two (64)\n"
      "  --batch_max=N        requests per batch (8)\n"
      "  --batch_window=N     batch-open window, cycles (4000)\n"
      "  --batched_clean=B    close batches with a clean sweep (true)\n"
      "  --governed           attach the adaptive pre-store governor\n"
      "  --monitored          adaptive region monitor advising the governor\n"
      "                       and gating the batch sweep (implies per-shard\n"
      "                       monitored arenas; requires --governed)\n"
      "\n"
      "Load loop:\n"
      "  --open_loop          fire-at-interval clients (default closed loop)\n"
      "  --interval=N         open-loop arrival interval, cycles (2000)\n"
      "  --inflight=N         open-loop outstanding cap (4)\n"
      "  --settle=N           exclude the first N cycles from latency (0)\n"
      "\n"
      "Run shape:\n"
      "  --cores=N            machine cores (shards + clients)\n"
      "  --media_cycles_per_byte=F  target media cost (0.9)\n"
      "  --warmup_ops=N       unmeasured warmup requests per client (200)\n"
      "  --smoke              small deterministic sanity run\n"
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
      {"workload", "keys", "value_size", "clients", "ops", "arena_slots",
       "zipf_theta", "seed", "index", "shards", "queue_slots", "batch_max",
       "batch_window", "batched_clean", "governed", "monitored", "open_loop",
       "interval", "inflight", "settle", "cores", "media_cycles_per_byte",
       "warmup_ops", "smoke"});
  if (!unknown.empty()) {
    for (const std::string& flag : unknown) {
      std::cerr << "unknown flag --" << flag << "\n";
    }
    std::cerr << "run with --help for the flag list\n";
    return 1;
  }
  const bool smoke = flags.GetBool("smoke", false);
  const std::optional<std::string> workload =
      flags.GetChoice("workload", "a", "a|b|c|d|f");
  const std::optional<std::string> index =
      flags.GetChoice("index", "clht", "clht|masstree");
  if (!workload || !index) {
    return 1;
  }

  ServeConfig cfg;
  cfg.ycsb.workload = ParseWorkload(*workload);
  cfg.ycsb.num_keys =
      static_cast<uint64_t>(flags.GetInt("keys", smoke ? 512 : 8192));
  cfg.ycsb.value_size =
      static_cast<uint32_t>(flags.GetInt("value_size", smoke ? 256 : 1024));
  cfg.ycsb.threads =
      static_cast<uint32_t>(flags.GetInt("clients", smoke ? 2 : 4));
  cfg.ycsb.ops_per_thread =
      static_cast<uint32_t>(flags.GetInt("ops", smoke ? 200 : 1000));
  cfg.ycsb.arena_slots =
      static_cast<uint32_t>(flags.GetInt("arena_slots", smoke ? 64 : 512));
  cfg.ycsb.zipf_theta = flags.GetDouble("zipf_theta", cfg.ycsb.zipf_theta);
  cfg.ycsb.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  cfg.index = *index == "masstree" ? ServeIndex::kMasstree : ServeIndex::kClht;
  cfg.num_shards =
      static_cast<uint32_t>(flags.GetInt("shards", smoke ? 2 : 4));
  cfg.queue_slots = static_cast<uint32_t>(flags.GetInt("queue_slots", 64));
  cfg.batch_max = static_cast<uint32_t>(flags.GetInt("batch_max", 8));
  cfg.batch_window_cycles =
      static_cast<uint64_t>(flags.GetInt("batch_window", 4000));
  cfg.batched_clean = flags.GetBool("batched_clean", true);
  cfg.governed = flags.GetBool("governed", false);
  cfg.monitored = flags.GetBool("monitored", false);
  cfg.open_loop = flags.GetBool("open_loop", false);
  cfg.open_loop_interval =
      static_cast<uint64_t>(flags.GetInt("interval", 2000));
  cfg.max_inflight = static_cast<uint32_t>(flags.GetInt("inflight", 4));
  cfg.settle_cycles = static_cast<uint64_t>(flags.GetInt("settle", 0));

  const std::string error = cfg.Validate();
  if (!error.empty()) {
    std::cerr << "invalid configuration: " << error << "\n";
    return 1;
  }

  MachineConfig mc = MachineA(static_cast<uint32_t>(
      flags.GetInt("cores", cfg.num_shards + cfg.ycsb.threads)));
  mc.target.media_cycles_per_byte =
      flags.GetDouble("media_cycles_per_byte", 0.9);
  Machine machine(mc);

  std::cout << "kv_server_cli: workload=" << *workload
            << " index=" << (cfg.index == ServeIndex::kClht ? "clht"
                                                            : "masstree")
            << " shards=" << cfg.num_shards
            << " clients=" << cfg.ycsb.threads
            << " ops/client=" << cfg.ycsb.ops_per_thread
            << " keys=" << cfg.ycsb.num_keys << "x" << cfg.ycsb.value_size
            << "B " << (cfg.open_loop ? "open" : "closed") << "-loop"
            << (cfg.batched_clean ? " batched-clean" : "")
            << (cfg.governed ? " governed" : "")
            << (cfg.monitored ? " monitored" : "") << "\n\n";

  KvServer server(machine, cfg);
  const uint32_t warmup_ops =
      static_cast<uint32_t>(flags.GetInt("warmup_ops", smoke ? 0 : 200));
  if (warmup_ops > 0) {
    // Unmeasured warmup window: populates the index and buffer state so the
    // measured window's percentiles reflect steady-state serving, not the
    // cold-start miss storm.
    const uint32_t measured_ops = cfg.ycsb.ops_per_thread;
    server.SetWorkload(cfg.ycsb.workload, warmup_ops);
    ServeYcsb(machine, server);
    server.SetWorkload(cfg.ycsb.workload, measured_ops);
  }
  const ServeResult r = ServeYcsb(machine, server);

  TextTable t({"metric", "value"});
  t.AddRow("requests answered", r.ops);
  t.AddRow("  gets / puts", std::to_string(r.gets) + " / " +
                                std::to_string(r.puts));
  t.AddRow("failed gets", r.failed_gets);
  t.AddRow("backpressure retries", r.retries);
  t.AddRow("batches (avg fill)", std::to_string(r.batches) + " (" +
                                     TextTable::Format(r.BatchFill()) + ")");
  t.AddRow("run cycles", r.cycles);
  t.AddRow("throughput ops/Mcycle", r.ThroughputPerMcycle());
  t.AddRow("media write amplification", r.write_amplification);
  t.AddRow("GET p50/p95/p99/max",
           TextTable::Format(r.get_latency.p50) + " / " +
               TextTable::Format(r.get_latency.p95) + " / " +
               TextTable::Format(r.get_latency.p99) + " / " +
               TextTable::Format(r.get_latency.max));
  t.AddRow("PUT p50/p95/p99/max",
           TextTable::Format(r.put_latency.p50) + " / " +
               TextTable::Format(r.put_latency.p95) + " / " +
               TextTable::Format(r.put_latency.p99) + " / " +
               TextTable::Format(r.put_latency.max));
  t.Print(std::cout);

  if (cfg.governed) {
    std::cout << "\nper-shard policy (adaptive pre-store governor):\n";
    TextTable p({"shard", "state", "regions", "admitted", "suppressed",
                 "rewrites", "backoffs", "reopens"});
    for (const ShardPolicy& s : r.shard_policies) {
      p.AddRow(s.shard, StateName(s), s.regions, s.admitted, s.suppressed,
               s.rewrites, s.backoffs, s.reopens);
    }
    p.Print(std::cout);
    std::cout << "\n" << server.governor()->Summary();
  }
  if (cfg.monitored) {
    std::cout << "\nsweeps gated by monitor: " << server.TotalSweepsGated()
              << "\n" << server.monitor()->Summary();
  }

  // kF closed-loop issues one extra GET per write (read-modify-write);
  // everything else answers exactly ops_per_thread per client.
  uint64_t expected =
      static_cast<uint64_t>(cfg.ycsb.threads) * cfg.ycsb.ops_per_thread;
  if (cfg.ycsb.workload == YcsbWorkload::kF && !cfg.open_loop) {
    expected += r.puts;
  }
  if (r.failed_gets != 0 || r.ops != expected) {
    std::cerr << "\nFAIL: request accounting mismatch (answered " << r.ops
              << ", expected " << expected << ", failed gets "
              << r.failed_gets << ")\n";
    return 1;
  }
  std::cout << "\nOK\n";
  return 0;
}
