// Sharded KV serving subsystem (DESIGN.md §9): routing, request/response
// transport, batching, backpressure, and the batched clean sweep's effect
// on write amplification.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "src/serve/cluster.h"
#include "src/serve/loadgen.h"
#include "src/serve/server.h"
#include "src/sim/harness.h"

namespace prestore {
namespace {

// A small, fast closed-loop configuration (kA on CLHT).
ServeConfig SmallConfig() {
  ServeConfig cfg;
  cfg.ycsb.workload = YcsbWorkload::kA;
  cfg.ycsb.num_keys = 256;
  cfg.ycsb.value_size = 256;
  cfg.ycsb.threads = 2;  // clients
  cfg.ycsb.ops_per_thread = 200;
  cfg.ycsb.arena_slots = 64;
  cfg.num_shards = 2;
  cfg.batch_max = 4;
  cfg.batch_window_cycles = 600;
  return cfg;
}

TEST(ServeConfig, ValidateRejectsBadShapes) {
  EXPECT_EQ(SmallConfig().Validate(), "");

  ServeConfig cfg = SmallConfig();
  cfg.num_shards = 0;
  EXPECT_NE(cfg.Validate().find("num_shards"), std::string::npos);

  cfg = SmallConfig();
  cfg.queue_slots = 24;  // not a power of two
  EXPECT_NE(cfg.Validate().find("queue_slots"), std::string::npos);

  cfg = SmallConfig();
  cfg.batch_max = 0;
  EXPECT_NE(cfg.Validate().find("batch_max"), std::string::npos);

  cfg = SmallConfig();
  cfg.open_loop = true;
  cfg.max_inflight = kResponseSlots + 1;  // worker could wedge
  EXPECT_NE(cfg.Validate().find("max_inflight"), std::string::npos);

  // Embedded YCSB problems surface through the same path.
  cfg = SmallConfig();
  cfg.ycsb.zipf_theta = 1.0;
  EXPECT_NE(cfg.Validate().find("zipf_theta"), std::string::npos);
}

TEST(ServeConfig, RejectsShapesPastTheMachineCoreLimit) {
  // The coherence directory tracks at most kMaxCores cores per machine; a
  // 65-core serve shape must be refused before any machine is built.
  ServeConfig cfg = SmallConfig();
  cfg.num_shards = 33;
  cfg.ycsb.threads = 32;
  EXPECT_NE(cfg.Validate().find("core"), std::string::npos);
  cfg.num_shards = 32;  // exactly kMaxCores: fine
  EXPECT_EQ(cfg.Validate(), "");
}

TEST(ServeConfig, ValidateRejectsBadClusterShapes) {
  // A valid cluster baseline; every case below breaks exactly one knob.
  auto cluster = [] {
    ServeConfig cfg = SmallConfig();
    cfg.open_loop = true;
    cfg.cluster_nodes = 3;
    cfg.replication_factor = 2;
    return cfg;
  };
  EXPECT_EQ(cluster().Validate(), "");

  ServeConfig cfg = cluster();
  cfg.open_loop = false;  // cluster serving is open-loop only
  EXPECT_NE(cfg.Validate().find("open-loop"), std::string::npos);

  cfg = cluster();
  cfg.ycsb.workload = YcsbWorkload::kD;  // shared latest-key counter
  EXPECT_NE(cfg.Validate().find("workload D"), std::string::npos);

  cfg = cluster();
  cfg.replication_factor = 0;
  EXPECT_NE(cfg.Validate().find("replication_factor"), std::string::npos);

  cfg = cluster();
  cfg.replication_factor = cfg.cluster_nodes + 1;  // more copies than nodes
  EXPECT_NE(cfg.Validate().find("replication_factor"), std::string::npos);

  cfg = cluster();
  cfg.cluster_nodes = 16;
  cfg.replication_factor = 9;  // beyond the router placement buffer
  EXPECT_NE(cfg.Validate().find("replication_factor"), std::string::npos);

  cfg = cluster();
  cfg.virtual_nodes = 48;  // not a power of two
  EXPECT_NE(cfg.Validate().find("virtual_nodes"), std::string::npos);

  cfg = cluster();
  cfg.unhealthy_after = 0;
  EXPECT_NE(cfg.Validate().find("unhealthy_after"), std::string::npos);

  cfg = cluster();
  cfg.max_attempts = 0;
  EXPECT_NE(cfg.Validate().find("max_attempts"), std::string::npos);

  cfg = cluster();
  cfg.num_shards = 32;
  cfg.cluster_nodes = 8;  // 32 * 8 + drivers > kMaxCores
  cfg.replication_factor = 2;
  EXPECT_NE(cfg.Validate().find("core budget"), std::string::npos);

  // Single-machine configs ignore the cluster knobs entirely.
  cfg = SmallConfig();
  cfg.cluster_nodes = 1;
  cfg.replication_factor = 0;
  EXPECT_EQ(cfg.Validate(), "");
}

TEST(ServeConfig, ClusterConstructorThrowsOnInvalidConfig) {
  ServeConfig cfg = SmallConfig();
  cfg.open_loop = true;
  cfg.cluster_nodes = 3;
  cfg.replication_factor = 4;  // > nodes
  EXPECT_THROW(
      KvCluster(cfg, {MachineA(1), MachineBFast(1), MachineBSlow(1)}),
      std::invalid_argument);

  cfg.replication_factor = 2;
  // Node machine list must match cluster_nodes.
  EXPECT_THROW(KvCluster(cfg, {MachineA(1), MachineBFast(1)}),
               std::invalid_argument);
}

TEST(ServeConfig, ServerConstructorThrowsOnInvalidConfig) {
  Machine machine(MachineA(4));
  ServeConfig cfg = SmallConfig();
  cfg.queue_slots = 3;
  EXPECT_THROW(KvServer(machine, cfg), std::invalid_argument);
}

TEST(Serve, RouterCoversAllShards) {
  Machine machine(MachineA(6));
  ServeConfig cfg = SmallConfig();
  cfg.num_shards = 4;
  KvServer server(machine, cfg);
  std::set<uint32_t> seen;
  for (uint64_t key = 1; key <= 1000; ++key) {
    const uint32_t shard = server.ShardFor(key);
    ASSERT_LT(shard, cfg.num_shards);
    // Stable: the router is a pure function of the key.
    ASSERT_EQ(shard, server.ShardFor(key));
    seen.insert(shard);
  }
  EXPECT_EQ(seen.size(), cfg.num_shards);
}

TEST(Serve, SeqStatusAndValueEcho) {
  Machine machine(MachineA(2));
  ServeConfig cfg = SmallConfig();
  cfg.num_shards = 1;
  cfg.ycsb.threads = 1;
  cfg.ycsb.num_keys = 64;
  cfg.ycsb.value_size = 64;
  KvServer server(machine, cfg);
  server.Preload();
  server.BeginRun();
  RunParallel(machine, 2, [&](Core& core, uint32_t tid) {
    if (tid == 0) {
      server.ShardWorkerLoop(core, 0);
      return;
    }
    auto roundtrip = [&](ServeOp op, uint64_t key, uint64_t seq) {
      RequestMsg req;
      req.op = static_cast<uint64_t>(op);
      req.key = key;
      req.client = 0;
      req.seq = seq;
      req.submit_time = core.now();
      while (!server.TrySubmit(core, req)) {
        core.SpinPause(50);
      }
      ResponseMsg resp;
      while (!server.TryGetResponse(core, 0, &resp)) {
        core.SpinPause(50);
      }
      EXPECT_EQ(resp.seq, seq);
      EXPECT_EQ(resp.op, static_cast<uint64_t>(op));
      return resp;
    };
    // Preloaded key: GET hits and the payload checks out.
    ResponseMsg got = roundtrip(ServeOp::kGet, 5, 1);
    EXPECT_EQ(got.status, 1u);
    EXPECT_TRUE(CheckValue(core, got.value_addr, 64, 5));
    // PUT recrafts into the shard arena; the following GET sees it.
    const ResponseMsg put = roundtrip(ServeOp::kPut, 5, 2);
    EXPECT_EQ(put.status, 1u);
    got = roundtrip(ServeOp::kGet, 5, 3);
    EXPECT_EQ(got.status, 1u);
    EXPECT_EQ(got.value_addr, put.value_addr);
    EXPECT_TRUE(CheckValue(core, got.value_addr, 64, 5));
    // Absent key: a miss, not a crash.
    got = roundtrip(ServeOp::kGet, 64 + 99, 4);
    EXPECT_EQ(got.status, 0u);
    server.ClientDone();
  });
}

TEST(Serve, ClosedLoopAnswersEveryRequest) {
  Machine machine(MachineA(4));
  KvServer server(machine, SmallConfig());
  const ServeResult result = ServeYcsb(machine, server);
  // kA issues exactly one request per op (no RMW).
  EXPECT_EQ(result.ops, 2u * 200u);
  EXPECT_EQ(result.failed_gets, 0u);
  EXPECT_GT(result.batches, 0u);
  EXPECT_EQ(result.get_latency.count + result.put_latency.count, result.ops);
  EXPECT_GE(result.get_latency.p99, result.get_latency.p50);
  EXPECT_GT(result.cycles, 0u);
  EXPECT_TRUE(result.shard_policies.empty());  // ungoverned
  // The serving window's cache traffic surfaces in the aggregated
  // hierarchy counters (filled from the per-core stat stripes).
  EXPECT_GT(result.hierarchy.llc_hits + result.hierarchy.llc_misses, 0u);
}

TEST(Serve, ReadModifyWriteDoublesWriteRequests) {
  Machine machine(MachineA(4));
  ServeConfig cfg = SmallConfig();
  cfg.ycsb.workload = YcsbWorkload::kF;
  KvServer server(machine, cfg);
  const ServeResult result = ServeYcsb(machine, server);
  // Every kF write is a GET followed by a PUT, so every one of the 400 ops
  // contributes exactly one GET, and the writes add their PUTs on top.
  EXPECT_EQ(result.gets, 400u);
  EXPECT_GT(result.puts, 0u);
  EXPECT_EQ(result.ops, 400u + result.puts);
  EXPECT_EQ(result.failed_gets, 0u);
}

TEST(Serve, MasstreeIndexServes) {
  Machine machine(MachineA(4));
  ServeConfig cfg = SmallConfig();
  cfg.index = ServeIndex::kMasstree;
  cfg.ycsb.ops_per_thread = 120;
  KvServer server(machine, cfg);
  const ServeResult result = ServeYcsb(machine, server);
  EXPECT_EQ(result.ops, 2u * 120u);
  EXPECT_EQ(result.failed_gets, 0u);
}

TEST(Serve, OpenLoopCompletes) {
  Machine machine(MachineA(4));
  ServeConfig cfg = SmallConfig();
  cfg.open_loop = true;
  cfg.open_loop_interval = 1500;
  cfg.max_inflight = 4;
  cfg.ycsb.ops_per_thread = 150;
  KvServer server(machine, cfg);
  const ServeResult result = ServeYcsb(machine, server);
  EXPECT_EQ(result.ops, 2u * 150u);
  EXPECT_EQ(result.failed_gets, 0u);
  EXPECT_EQ(result.get_latency.count + result.put_latency.count, result.ops);
}

TEST(Serve, BackpressureRejectsAndRecovers) {
  // An arrival rate far above the service rate against a 2-slot admission
  // queue: submits must bounce (retry-after), and every request must still
  // be answered once the clients pace themselves through the retries.
  Machine machine(MachineA(3));
  ServeConfig cfg = SmallConfig();
  cfg.num_shards = 1;
  cfg.queue_slots = 2;
  cfg.open_loop = true;
  cfg.open_loop_interval = 40;  // far below the per-request service time
  cfg.max_inflight = 8;
  cfg.ycsb.ops_per_thread = 120;
  KvServer server(machine, cfg);
  const ServeResult result = ServeYcsb(machine, server);
  EXPECT_GT(result.retries, 0u);
  EXPECT_EQ(result.ops, 2u * 120u);
  EXPECT_EQ(result.failed_gets, 0u);
}

TEST(Serve, BatchedCleanCutsWriteAmplification) {
  // §4.1 applied to the server loop: on the Optane-like target (256B
  // internal blocks vs 64B lines) values that trickle out of the LLC
  // line-by-line cost up to 4x media bytes; the batch-close clean sweep
  // writes each crafted value back contiguously while it is still hot.
  auto run = [](bool batched_clean) {
    MachineConfig mc = MachineA(8);
    mc.target.media_cycles_per_byte = 0.9;  // media-bound, as in kv benches
    Machine machine(mc);
    ServeConfig cfg;
    cfg.ycsb.workload = YcsbWorkload::kA;
    cfg.ycsb.num_keys = 8192;  // 8 MiB of values: 4x the 2 MiB LLC
    cfg.ycsb.value_size = 1024;
    cfg.ycsb.threads = 4;
    cfg.ycsb.ops_per_thread = 400;
    cfg.ycsb.arena_slots = 512;
    cfg.num_shards = 4;  // concurrent crafting interleaves evictions
    cfg.batched_clean = batched_clean;
    // Saturating open loop: all four shard workers craft concurrently, so
    // baseline evictions from different values interleave at the device.
    cfg.open_loop = true;
    cfg.open_loop_interval = 100;
    cfg.max_inflight = 16;
    cfg.batch_max = 8;
    KvServer server(machine, cfg);
    return ServeYcsb(machine, server);
  };
  const ServeResult base = run(false);
  const ServeResult clean = run(true);
  EXPECT_EQ(base.failed_gets, 0u);
  EXPECT_EQ(clean.failed_gets, 0u);
  EXPECT_GT(base.write_amplification, clean.write_amplification + 0.05);
}

}  // namespace
}  // namespace prestore
