// Configuration of the sharded KV serving subsystem (DESIGN.md §9).
#ifndef SRC_SERVE_SERVE_CONFIG_H_
#define SRC_SERVE_SERVE_CONFIG_H_

#include <cstdint>
#include <string>

#include "src/kv/ycsb.h"
#include "src/monitor/region_monitor.h"
#include "src/msg/x9.h"
#include "src/robust/governor_policy.h"
#include "src/sim/config.h"

namespace prestore {

// Per-client response queue capacity (an X9Inbox, so a power of two).
inline constexpr uint32_t kResponseSlots = 16;

// Response publication: demote (reply buffers are reused and read by
// another core — DirtBuster's recommendation for §7.3.2 buffers).
inline constexpr MsgPrestore kResponsePrestore = MsgPrestore::kDemote;

// Which KV index backs each shard.
enum class ServeIndex : uint8_t {
  kClht,
  kMasstree,
};

struct ServeConfig {
  // Workload shape, reused from the YCSB driver: `ycsb.threads` is the
  // number of client cores, `ycsb.ops_per_thread` the requests per client,
  // and num_keys / value_size / workload / zipf_theta / seed / arena_slots
  // keep their meanings (arena_slots is the per-SHARD value ring).
  // `ycsb.policy` is ignored: the server owns the pre-store placement
  // (batched clean sweep + response demote), that being the point of §9.
  YcsbConfig ycsb;

  ServeIndex index = ServeIndex::kClht;
  uint32_t num_shards = 2;

  // Per-shard admission queue capacity; X9Inbox requires a power of two.
  uint32_t queue_slots = 64;

  // Request batching: a shard worker that has admitted one request keeps
  // polling for more until it holds `batch_max` of them or the batch has
  // been open for `batch_window_cycles`; the batch then executes and — when
  // `batched_clean` is set — closes with one clean pre-store sweep over the
  // value-arena slots the batch dirtied (§7.2.3 applied to a server loop).
  uint32_t batch_max = 8;
  uint64_t batch_window_cycles = 4000;
  bool batched_clean = true;

  // Online policy loop: when set, the server owns a PrestoreGovernor
  // attached to the machine, and aligns each shard's value arena to the
  // governor's region size so per-shard rewrite/useless telemetry lands in
  // that shard's own regions — a misbehaving shard backs off independently.
  bool governed = false;
  GovernorConfig governor;

  // Adaptive monitoring (DESIGN.md §13): when set (requires `governed`),
  // the server owns a RegionMonitor with one monitored range per shard
  // value arena, installs it as the governor's per-region advisor, and
  // gates the batch-close clean sweep host-side on the monitor's verdicts
  // (a suppressed shard region skips its sweep Prestore calls entirely,
  // probes excepted).
  bool monitored = false;
  MonitorConfig monitor;

  // Load generation. Closed loop: each client keeps exactly one request
  // outstanding. Open loop: clients fire a request every
  // `open_loop_interval` cycles (up to `max_inflight` outstanding, which
  // must fit the kResponseSlots response queue or the shard worker could
  // wedge on a full reply ring).
  bool open_loop = false;
  uint64_t open_loop_interval = 2000;
  uint32_t max_inflight = 4;

  // ---- Cluster serving (KvCluster, DESIGN.md §11). Ignored by the
  // single-machine KvServer; validated whenever cluster_nodes > 1. ----
  // N node machines, each hosting num_shards shard workers. Every key lives
  // on `replication_factor` distinct nodes chosen by consistent hashing
  // over `virtual_nodes` ring points per node (power of two, so the ring
  // re-seeds reproducibly when nodes are added).
  uint32_t cluster_nodes = 1;
  uint32_t replication_factor = 1;
  uint32_t virtual_nodes = 64;
  uint64_t ring_seed = 0x5ca1ab1e;
  // One-way inter-node hop, charged on replication sends, on responses, and
  // on each failed attempt's refusal round trip (2x).
  uint64_t net_latency_cycles = 500;
  // Router-side health tracking: a node is marked unhealthy after this many
  // CONSECUTIVE retry-after/refused results, and is then only probed again
  // after a capped exponential backoff (NodeHealthView, cluster.h).
  uint32_t unhealthy_after = 2;
  // A request is abandoned (recorded as failed, never silently dropped)
  // after this many full passes over its replica set.
  uint32_t max_attempts = 8;
  // Logical open-loop clients multiplexed over the ycsb.threads driver
  // threads (0 = one per driver). Each sends ycsb.ops_per_thread requests.
  uint32_t logical_clients = 0;

  // Measurement settle window: responses to requests submitted within the
  // first `settle_cycles` of a run are served normally and counted in the
  // op totals, but excluded from the latency meter. A run starts with a
  // deterministic queueing transient (the first requests miss everywhere,
  // their long service times build a backlog that drains over many
  // arrival intervals); percentiles over the whole run measure that
  // transient, not steady-state serving. 0 = measure everything.
  uint64_t settle_cycles = 0;

  // Returns "" when usable, else a description of the first problem.
  std::string Validate() const {
    const std::string ycsb_error = ycsb.Validate();
    if (!ycsb_error.empty()) {
      return ycsb_error;
    }
    if (num_shards == 0) {
      return "num_shards must be > 0";
    }
    if (num_shards + ycsb.threads > kMaxCores) {
      return "num_shards + clients must fit the machine's " +
             std::to_string(kMaxCores) + "-core limit";
    }
    if (queue_slots == 0 || (queue_slots & (queue_slots - 1)) != 0) {
      return "queue_slots must be a power of two";
    }
    if (batch_max == 0) {
      return "batch_max must be > 0";
    }
    if (governed) {
      const std::string governor_error = governor.Validate();
      if (!governor_error.empty()) {
        return "governor: " + governor_error;
      }
    }
    if (monitored) {
      if (!governed) {
        return "monitored requires governed (the monitor advises the "
               "governor)";
      }
      const std::string monitor_error = monitor.Validate();
      if (!monitor_error.empty()) {
        return "monitor: " + monitor_error;
      }
    }
    if (open_loop) {
      if (open_loop_interval == 0) {
        return "open_loop_interval must be > 0";
      }
      if (max_inflight == 0 || max_inflight > kResponseSlots) {
        return "max_inflight must be in [1, " +
               std::to_string(kResponseSlots) +
               "] (a shard worker blocks on a full response queue)";
      }
    }
    if (cluster_nodes > 1) {
      if (!open_loop) {
        return "cluster serving is open-loop only: set open_loop";
      }
      if (ycsb.workload == YcsbWorkload::kD) {
        return "cluster serving does not support workload D (the latest-key "
               "distribution couples clients through one shared counter)";
      }
      if (replication_factor == 0 || replication_factor > cluster_nodes) {
        return "replication_factor must be in [1, cluster_nodes]";
      }
      if (replication_factor > 8) {
        return "replication_factor must be <= 8 (router placement buffer)";
      }
      if (virtual_nodes == 0 || (virtual_nodes & (virtual_nodes - 1)) != 0) {
        return "virtual_nodes must be a power of two";
      }
      if (unhealthy_after == 0) {
        return "unhealthy_after must be > 0";
      }
      if (max_attempts == 0) {
        return "max_attempts must be > 0";
      }
      // Per node machine: num_shards workers + one repl-ingress core per
      // (peer, shard) channel + one core per driver thread.
      const uint64_t cores_per_node =
          static_cast<uint64_t>(num_shards) * cluster_nodes + ycsb.threads;
      if (cores_per_node > kMaxCores) {
        return "cluster core budget: shards * nodes + drivers must fit the "
               "machine's " +
               std::to_string(kMaxCores) + "-core limit";
      }
    }
    return "";
  }
};

}  // namespace prestore

#endif  // SRC_SERVE_SERVE_CONFIG_H_
