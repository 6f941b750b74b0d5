#include "src/serve/cluster.h"

#include <algorithm>
#include <stdexcept>

#include "src/kv/kvstore.h"
#include "src/robust/governor.h"
#include "src/sim/harness.h"

namespace prestore {

namespace {

// SplitMix64 finalizer: the ring-point and key hash for placement. Distinct
// from FnvHash64 (the shard router within a node) on purpose — shard choice
// and node choice must not be correlated, or one node's shard 0 would
// receive every placement's shard-0 keys.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// ---------------------------------------------------------------- router

ShardRouter::ShardRouter(uint32_t nodes, uint32_t virtual_nodes,
                         uint32_t replication, uint64_t seed)
    : nodes_(nodes), replication_(replication) {
  ring_.reserve(static_cast<size_t>(nodes) * virtual_nodes);
  for (uint32_t n = 0; n < nodes; ++n) {
    for (uint32_t v = 0; v < virtual_nodes; ++v) {
      const uint64_t pos =
          Mix64(seed ^ (static_cast<uint64_t>(n) * 0x100000001b3ULL + v));
      ring_.push_back(Point{pos, n});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const Point& a, const Point& b) {
    return a.pos != b.pos ? a.pos < b.pos : a.node < b.node;
  });
}

void ShardRouter::Placement(uint64_t key, uint32_t* out) const {
  const uint64_t h = Mix64(key);
  // First ring point clockwise of the key's hash.
  size_t i = std::lower_bound(ring_.begin(), ring_.end(), h,
                              [](const Point& p, uint64_t v) {
                                return p.pos < v;
                              }) -
             ring_.begin();
  uint32_t found = 0;
  for (size_t step = 0; step < ring_.size() && found < replication_; ++step) {
    const uint32_t n = ring_[(i + step) % ring_.size()].node;
    bool seen = false;
    for (uint32_t k = 0; k < found; ++k) {
      seen |= out[k] == n;
    }
    if (!seen) {
      out[found++] = n;
    }
  }
  // replication_ <= nodes_ (validated), so the walk always finds enough.
}

uint32_t ShardRouter::Primary(uint64_t key) const {
  uint32_t out[8];
  Placement(key, out);
  return out[0];
}

// ------------------------------------------------------- cluster internals

// One replication channel: an inbox on the RECEIVER's machine, written
// through a dedicated ingress core of that machine. The ingress core is
// owned by the sender's (node, shard) worker fiber — one writer per
// simulated core, as everywhere else in the simulator.
struct KvCluster::ReplChannel {
  std::unique_ptr<X9Inbox> inbox;
  uint32_t ingress_core = 0;
};

struct KvCluster::NodeShard {
  std::unique_ptr<KvStore> store;
  std::unique_ptr<X9Inbox> requests;  // admission queue
  std::unique_ptr<ValueArena> arena;

  // Hinted handoff: replica writes buffered while the peer drains, keyed by
  // peer node, replayed over the normal channel once the peer rejoins.
  struct HintQueue {
    std::vector<RequestMsg> msgs;
    uint64_t replay_at = 0;  // run-relative rejoin cycle
  };
  std::vector<HintQueue> hints;  // indexed by peer node id

  // Counters written only by the shard's worker.
  uint64_t served = 0;
  uint64_t nacks = 0;
  uint64_t batches = 0;
  uint64_t applied_repl = 0;
  uint64_t repl_skipped_dead = 0;
  uint64_t hints_stored = 0;
  uint64_t hints_replayed = 0;
  uint64_t hints_dropped = 0;

  // Every write token applied on this (node, shard) — coordinator serves
  // and replica applies alike. Host-side, for the post-run zero-loss check.
  std::vector<uint64_t> applied;
};

struct KvCluster::Node {
  std::unique_ptr<Machine> machine;
  std::vector<NodeShard> shards;
  std::vector<std::unique_ptr<X9Inbox>> responses;  // one per driver
  std::unique_ptr<PrestoreGovernor> governor;
  FuncToken craft_func;
  FuncToken serve_func;
  FuncToken sweep_func;
  FuncToken repl_func;
};

KvCluster::KvCluster(const ServeConfig& config,
                     std::vector<MachineConfig> node_configs,
                     FaultInjector* injector)
    : config_(config),
      router_(config.cluster_nodes, config.virtual_nodes,
              config.replication_factor, config.ring_seed),
      injector_(injector) {
  const std::string error = config_.Validate();
  if (!error.empty()) {
    throw std::invalid_argument("ServeConfig: " + error);
  }
  if (config_.cluster_nodes < 2) {
    throw std::invalid_argument("KvCluster: cluster_nodes must be >= 2");
  }
  if (node_configs.size() != config_.cluster_nodes) {
    throw std::invalid_argument(
        "KvCluster: need one MachineConfig per cluster node");
  }
  const uint32_t nnodes = config_.cluster_nodes;
  const uint32_t nshards = config_.num_shards;
  const uint32_t ndrivers = config_.ycsb.threads;
  // Core map per node machine: [0, S) shard workers, [S, S + D) driver
  // cores, [S + D, S + D + (N - 1) * S) replication-ingress cores.
  const uint32_t cores_per_node = nshards * nnodes + ndrivers;
  const uint64_t keys_per_shard = config_.ycsb.num_keys / nshards + 1;

  for (uint32_t n = 0; n < nnodes; ++n) {
    MachineConfig mc = node_configs[n];
    mc.num_cores = cores_per_node;
    auto node = std::make_unique<Node>();
    node->machine = std::make_unique<Machine>(mc);
    Machine& m = *node->machine;
    node->craft_func = FuncToken{m.registry().Intern("clusterCraftValue",
                                                     "cluster.cc")};
    node->serve_func = FuncToken{m.registry().Intern("clusterShardWorker",
                                                     "cluster.cc")};
    node->sweep_func = FuncToken{m.registry().Intern("clusterBatchSweep",
                                                     "cluster.cc")};
    node->repl_func = FuncToken{m.registry().Intern("clusterReplApply",
                                                    "cluster.cc")};
    node->shards.resize(nshards);
    for (uint32_t s = 0; s < nshards; ++s) {
      NodeShard& shard = node->shards[s];
      shard.store = MakeServeStore(m, config_.index, keys_per_shard);
      shard.requests = std::make_unique<X9Inbox>(
          m, config_.queue_slots, sizeof(RequestMsg), Region::kDram);
      shard.arena = MakeShardArena(m, config_, s);
      shard.hints.resize(nnodes);
    }
    for (uint32_t d = 0; d < ndrivers; ++d) {
      node->responses.push_back(std::make_unique<X9Inbox>(
          m, kResponseSlots, sizeof(ResponseMsg), Region::kDram));
    }
    if (config_.governed) {
      node->governor = std::make_unique<PrestoreGovernor>(m, config_.governor);
      node->governor->Attach();
    }
    nodes_.push_back(std::move(node));
  }

  // channels_[from][to][shard]: built after every machine exists. The
  // ingress-core slot for sender `from` on receiver `to` skips `to` itself,
  // so N - 1 peer slots cover every sender.
  channels_.resize(nnodes);
  for (uint32_t from = 0; from < nnodes; ++from) {
    channels_[from].resize(nnodes);
    for (uint32_t to = 0; to < nnodes; ++to) {
      if (from == to) {
        continue;
      }
      const uint32_t peer_slot = from < to ? from : from - 1;
      for (uint32_t s = 0; s < nshards; ++s) {
        auto ch = std::make_unique<ReplChannel>();
        ch->inbox = std::make_unique<X9Inbox>(
            *nodes_[to]->machine, kReplQueueSlots, sizeof(RequestMsg),
            Region::kDram);
        ch->ingress_core = nshards + ndrivers + peer_slot * nshards + s;
        channels_[from][to].push_back(std::move(ch));
      }
    }
  }
}

KvCluster::~KvCluster() = default;

Machine& KvCluster::machine(uint32_t node) { return *nodes_[node]->machine; }

KvStore& KvCluster::store(uint32_t node, uint32_t shard) {
  return *nodes_[node]->shards[shard].store;
}

Core& KvCluster::driver_core(uint32_t driver, uint32_t node) {
  return nodes_[node]->machine->core(config_.num_shards + driver);
}

void KvCluster::Preload() {
  if (preloaded_) {
    return;
  }
  preloaded_ = true;
  const uint32_t vs = config_.ycsb.value_size;
  // Each node loads the keys its replica set covers — dedicated value slots
  // (as in the single-machine preload), one loader core per shard.
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    Machine& m = *nodes_[n]->machine;
    RunParallel(m, num_shards(), [&](Core& core, uint32_t s) {
      uint32_t placement[8];
      for (uint64_t key = 1; key <= config_.ycsb.num_keys; ++key) {
        if (ShardFor(key) != s) {
          continue;
        }
        router_.Placement(key, placement);
        bool mine = false;
        for (uint32_t r = 0; r < router_.replication(); ++r) {
          mine |= placement[r] == n;
        }
        if (!mine) {
          continue;
        }
        const SimAddr slot = m.Alloc(vs, Region::kTarget);
        CraftValue(core, nodes_[n]->craft_func, slot, vs, key,
                   KvWritePolicy::kBaseline);
        nodes_[n]->shards[s].store->Put(core, key, slot);
      }
    });
  }
}

void KvCluster::BeginRun(uint64_t origin) {
  origin_ = origin;
  drivers_done_ = false;
  workers_send_done_ = 0;
  applied_built_ = false;
  applied_sets_.clear();
  for (auto& node : nodes_) {
    // Every core of every machine starts the run at the shared origin, so
    // run-relative times mean the same thing cluster-wide.
    for (uint32_t c = 0; c < node->machine->num_cores(); ++c) {
      Core& core = node->machine->core(c);
      if (core.now() < origin) {
        core.Execute(origin - core.now());
      }
    }
    for (NodeShard& shard : node->shards) {
      shard.served = shard.nacks = shard.batches = 0;
      shard.applied_repl = shard.repl_skipped_dead = 0;
      shard.hints_stored = shard.hints_replayed = shard.hints_dropped = 0;
      shard.applied.clear();
      for (NodeShard::HintQueue& hq : shard.hints) {
        hq.msgs.clear();
        hq.replay_at = 0;
      }
    }
  }
}

void KvCluster::DriversDone() { drivers_done_ = true; }

// ---------------------------------------------------------- client side

SubmitStatus KvCluster::TrySubmit(uint32_t driver, uint32_t node,
                                  const RequestMsg& req) {
  // The attempt was DECIDED one net hop before it arrives. Both refusal
  // checks key on deterministic schedule-derived times — never on a host
  // clock — which is what makes request outcomes replayable.
  const uint64_t decision = req.not_before >= config_.net_latency_cycles
                                ? req.not_before - config_.net_latency_cycles
                                : 0;
  if (injector_ != nullptr) {
    const uint64_t at = RelTime(decision);
    if (injector_->NodeKilled(node, at)) {
      injector_->RecordNodeRejection(driver, FaultKind::kNodeKill, node, at);
      return SubmitStatus::kRefused;
    }
    if (injector_->NodeDraining(node, at)) {
      injector_->RecordNodeRejection(driver, FaultKind::kNodeDrain, node, at);
      return SubmitStatus::kRefused;
    }
  }
  NodeShard& shard = nodes_[node]->shards[ShardFor(req.key)];
  return shard.requests->TryWrite(driver_core(driver, node), &req,
                                  MsgPrestore::kOff)
             ? SubmitStatus::kOk
             : SubmitStatus::kRetryAfter;
}

bool KvCluster::HasResponse(uint32_t node, uint32_t driver) {
  return nodes_[node]->responses[driver]->Peek();
}

bool KvCluster::TryGetResponse(uint32_t node, uint32_t driver,
                               ResponseMsg* out) {
  return nodes_[node]->responses[driver]->TryRead(driver_core(driver, node),
                                                  out);
}

// ---------------------------------------------------------- server side

void KvCluster::DrainRepl(Core& core, uint32_t node, uint32_t shard,
                          std::vector<SimAddr>* touched, bool* progress) {
  RequestMsg rec;
  for (uint32_t from = 0; from < num_nodes(); ++from) {
    if (from == node) {
      continue;
    }
    X9Inbox& in = *channels_[from][node][shard]->inbox;
    while (in.Peek() && in.TryRead(core, &rec)) {
      ApplyRepl(core, node, shard, rec, touched);
      *progress = true;
    }
  }
}

void KvCluster::ApplyRepl(Core& core, uint32_t node, uint32_t shard,
                          const RequestMsg& rec,
                          std::vector<SimAddr>* touched) {
  Node& nd = *nodes_[node];
  NodeShard& sh = nd.shards[shard];
  ScopedFunction f(core, nd.repl_func);
  if (rec.not_before > core.now()) {
    core.Execute(rec.not_before - core.now());
  }
  // Values are key-derived, so the replica re-crafts the payload locally —
  // the channel carries the record, not the bytes. A replayed hint can land
  // after a newer write of the same key and overwrite it; the bytes are
  // identical (key-derived), so reads stay correct — a real store would
  // version the records.
  const SimAddr slot = sh.arena->NextSlot();
  CraftValue(core, nd.craft_func, slot, config_.ycsb.value_size, rec.key,
             KvWritePolicy::kBaseline);
  sh.store->Put(core, rec.key, slot);
  touched->push_back(slot);
  sh.applied.push_back(Token(rec.client, rec.seq));
  ++sh.applied_repl;
}

void KvCluster::SendRepl(Core& core, uint32_t from, uint32_t to,
                         uint32_t shard, const RequestMsg& rec,
                         std::vector<SimAddr>* touched) {
  ReplChannel& ch = *channels_[from][to][shard];
  Core& ingress = nodes_[to]->machine->core(ch.ingress_core);
  while (!ch.inbox->TryWrite(ingress, &rec, MsgPrestore::kDemote)) {
    // The receiver's worker may itself be blocked sending to US — a cycle
    // of full rings. A blocked sender keeps consuming its own incoming
    // channels, so some worker in any cycle always drains and the ring
    // frees up.
    bool progress = false;
    DrainRepl(core, from, shard, touched, &progress);
    if (!progress) {
      core.EndSlice();
    }
  }
}

void KvCluster::Replicate(Core& core, uint32_t node, uint32_t shard,
                          const RequestMsg& req,
                          std::vector<SimAddr>* touched) {
  NodeShard& sh = nodes_[node]->shards[shard];
  uint32_t placement[8];
  router_.Placement(req.key, placement);
  RequestMsg rec = req;
  rec.not_before = core.now() + config_.net_latency_cycles;
  const uint64_t at = RelTime(core.now());
  for (uint32_t r = 0; r < router_.replication(); ++r) {
    const uint32_t peer = placement[r];
    if (peer == node) {
      continue;
    }
    if (injector_ != nullptr && injector_->NodeKilled(peer, at)) {
      // The write stays under-replicated; durability rests on the replicas
      // that did accept it (zero-loss needs R >= 2 under a single fault).
      ++sh.repl_skipped_dead;
      continue;
    }
    if (injector_ != nullptr && injector_->NodeDraining(peer, at)) {
      NodeShard::HintQueue& hq = sh.hints[peer];
      hq.replay_at =
          std::max(hq.replay_at, injector_->DrainEndAfter(peer, at));
      hq.msgs.push_back(rec);
      ++sh.hints_stored;
      continue;
    }
    SendRepl(core, node, peer, shard, rec, touched);
  }
}

void KvCluster::ReplayHints(Core& core, uint32_t node, uint32_t shard,
                            bool* progress, bool* unresolved,
                            uint64_t* next_replay,
                            std::vector<SimAddr>* touched) {
  NodeShard& sh = nodes_[node]->shards[shard];
  const uint64_t now_rel = RelTime(core.now());
  for (uint32_t peer = 0; peer < num_nodes(); ++peer) {
    NodeShard::HintQueue& hq = sh.hints[peer];
    if (hq.msgs.empty()) {
      continue;
    }
    if (injector_ != nullptr && injector_->NodeKilled(peer, hq.replay_at)) {
      // The peer died before rejoining; its hints can never be delivered.
      sh.hints_dropped += hq.msgs.size();
      hq.msgs.clear();
      *progress = true;
      continue;
    }
    if (now_rel < hq.replay_at) {
      // Not yet rejoined on this worker's clock. The worker leaps its idle
      // clock toward replay_at once the drivers are done (see WorkerLoop).
      *unresolved = true;
      *next_replay = std::min(*next_replay, hq.replay_at);
      continue;
    }
    for (RequestMsg rec : hq.msgs) {
      rec.not_before = core.now() + config_.net_latency_cycles;
      SendRepl(core, node, peer, shard, rec, touched);
      ++sh.hints_replayed;
    }
    hq.msgs.clear();
    *progress = true;
  }
}

void KvCluster::Respond(Core& core, uint32_t node, const ResponseMsg& resp) {
  const uint32_t driver =
      static_cast<uint32_t>(resp.client % config_.ycsb.threads);
  X9Inbox& out = *nodes_[node]->responses[driver];
  // Transiently full is fine (the driver keeps draining); the wait is
  // free so a blocked worker's clock doesn't inflate later requests.
  while (!out.TryWrite(core, &resp, kResponsePrestore)) {
    while (!out.CanWrite()) {
      core.EndSlice();
    }
  }
}

void KvCluster::ServeOne(Core& core, uint32_t node, uint32_t shard,
                         const RequestMsg& r, std::vector<SimAddr>* touched) {
  Node& nd = *nodes_[node];
  NodeShard& sh = nd.shards[shard];
  ScopedFunction f(core, nd.serve_func);
  // Causality: service starts no earlier than the attempt's arrival.
  const uint64_t floor = std::max(r.submit_time, r.not_before);
  if (floor > core.now()) {
    core.Execute(floor - core.now());
  }
  ResponseMsg resp;
  resp.op = r.op;
  resp.client = r.client;
  resp.seq = r.seq;
  resp.submit_time = r.submit_time;
  if (injector_ != nullptr) {
    // NACK by the attempt's ARRIVAL time, not this worker's clock: a
    // request that arrived before the fault is served even if the worker
    // gets to it later (queued work completes), and one that arrived after
    // is refused no matter how idle the worker was — pure in deterministic
    // times, so outcomes replay.
    const uint64_t at = RelTime(r.not_before);
    if (injector_->NodeKilled(node, at) || injector_->NodeDraining(node, at)) {
      resp.status = kStatusRetryAfter;
      resp.completion_time = core.now();
      ++sh.nacks;
      Respond(core, node, resp);
      return;
    }
    const uint64_t extra = injector_->NodeDegradeCycles(node,
                                                        RelTime(core.now()));
    if (extra != 0) {
      core.Execute(extra);  // throttled node: surcharge per request served
    }
  }
  if (static_cast<ServeOp>(r.op) == ServeOp::kGet) {
    const SimAddr value = sh.store->Get(core, r.key);
    resp.status = value != 0 ? kStatusOk : kStatusMiss;
    resp.value_addr = value;
  } else {
    const SimAddr slot = sh.arena->NextSlot();
    CraftValue(core, nd.craft_func, slot, config_.ycsb.value_size, r.key,
               KvWritePolicy::kBaseline);
    sh.store->Put(core, r.key, slot);
    touched->push_back(slot);
    sh.applied.push_back(Token(r.client, r.seq));
    resp.status = kStatusOk;
    resp.value_addr = slot;
    // Semi-synchronous replication: the write is on every live replica's
    // timeline (applied here, enqueued to the peers) BEFORE the ack leaves,
    // so an acked write survives this node's later death.
    Replicate(core, node, shard, r, touched);
  }
  resp.completion_time = core.now();
  ++sh.served;
  Respond(core, node, resp);
}

void KvCluster::WorkerLoop(uint32_t node, uint32_t shard) {
  Node& nd = *nodes_[node];
  NodeShard& sh = nd.shards[shard];
  Core& core = nd.machine->core(shard);
  const uint32_t total_workers = num_nodes() * num_shards();
  std::vector<RequestMsg> batch;
  std::vector<SimAddr> touched;
  batch.reserve(config_.batch_max);
  touched.reserve(config_.batch_max * 2);
  bool send_done = false;
  RequestMsg req;
  while (true) {
    bool progress = false;
    touched.clear();
    // 1) Apply replica writes first: they carry no client waiting on them,
    // but holding them starves the peers' send rings.
    DrainRepl(core, node, shard, &touched, &progress);

    // 2) Admission batch — the KvServer loop, plus NACKs and replication.
    if (sh.requests->Peek() && sh.requests->TryRead(core, &req)) {
      progress = true;
      batch.clear();
      batch.push_back(req);
      const uint64_t base = std::max(req.submit_time, req.not_before);
      if (base > core.now()) {
        core.Execute(base - core.now());
      }
      const uint64_t opened = core.now();
      while (batch.size() < config_.batch_max) {
        if (sh.requests->Peek() && sh.requests->TryRead(core, &req)) {
          batch.push_back(req);
          continue;
        }
        if (core.now() - opened >= config_.batch_window_cycles) {
          break;
        }
        core.Execute(24);
      }
      for (const RequestMsg& r : batch) {
        ServeOne(core, node, shard, r, &touched);
      }
      ++sh.batches;
    }

    // 3) Hinted handoff toward rejoined peers.
    bool unresolved = false;
    uint64_t next_replay = UINT64_MAX;
    ReplayHints(core, node, shard, &progress, &unresolved, &next_replay,
                &touched);

    // 4) Close the iteration with one clean sweep over everything it
    // dirtied — coordinator writes and replica applies alike (§7.2.3's
    // batched clean, kept alive on every replica).
    if (config_.batched_clean && !touched.empty()) {
      ScopedFunction f(core, nd.sweep_func);
      for (const SimAddr slot : touched) {
        core.Prestore(slot, config_.ycsb.value_size, PrestoreOp::kClean);
      }
    }
    if (progress) {
      continue;
    }

    // Idle. Same free-wait discipline as the single-machine worker —
    // EXCEPT when only a future hint replay remains: a demand-driven clock
    // would never reach the rejoin time on its own, so leap toward it in
    // bounded chunks once no more client work can arrive.
    if (drivers_done_ && !sh.requests->Peek()) {
      if (unresolved) {
        const uint64_t target = origin_ + next_replay;
        if (core.now() < target) {
          core.Execute(std::min<uint64_t>(target - core.now(), 1u << 16));
        }
        continue;
      }
      if (!send_done) {
        send_done = true;
        ++workers_send_done_;
      }
      if (workers_send_done_ == total_workers) {
        // No sender will produce again; drain until every incoming channel
        // is quiesced (every claimed ring index consumed).
        bool quiesced = true;
        for (uint32_t from = 0; from < num_nodes(); ++from) {
          if (from != node) {
            quiesced &= channels_[from][node][shard]->inbox->Quiesced();
          }
        }
        if (quiesced) {
          break;
        }
      }
    }
    core.EndSlice();
  }
}

// ------------------------------------------------------------- inspection

std::vector<NodeReport> KvCluster::NodeReports() const {
  std::vector<NodeReport> out;
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    const Node& nd = *nodes_[n];
    NodeReport rep;
    rep.node = n;
    rep.machine_name = nd.machine->config().name;
    rep.killed = NodeEverKilled(n);
    rep.drained = NodeEverDrained(n);
    for (const NodeShard& sh : nd.shards) {
      rep.served += sh.served;
      rep.nacks += sh.nacks;
      rep.batches += sh.batches;
      rep.applied_replications += sh.applied_repl;
      rep.repl_skipped_dead += sh.repl_skipped_dead;
      rep.hints_stored += sh.hints_stored;
      rep.hints_replayed += sh.hints_replayed;
      rep.hints_dropped += sh.hints_dropped;
    }
    rep.write_amplification =
        nd.machine->target().Stats().WriteAmplification();
    if (nd.governor != nullptr) {
      std::vector<const ValueArena*> arenas;
      arenas.reserve(nd.shards.size());
      for (const NodeShard& sh : nd.shards) {
        arenas.push_back(sh.arena.get());
      }
      rep.shard_policies = CollectShardPolicies(nd.governor.get(), arenas);
    }
    out.push_back(std::move(rep));
  }
  return out;
}

void KvCluster::BuildAppliedSets() const {
  if (applied_built_) {
    return;
  }
  applied_built_ = true;
  applied_sets_.resize(num_nodes());
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    for (const NodeShard& sh : nodes_[n]->shards) {
      applied_sets_[n].insert(sh.applied.begin(), sh.applied.end());
    }
  }
}

bool KvCluster::AppliedOn(uint32_t node, uint64_t token) const {
  BuildAppliedSets();
  return applied_sets_[node].count(token) != 0;
}

bool KvCluster::AppliedOnLiveNode(uint64_t token) const {
  BuildAppliedSets();
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (!NodeEverKilled(n) && applied_sets_[n].count(token) != 0) {
      return true;
    }
  }
  return false;
}

bool KvCluster::NodeEverKilled(uint32_t node) const {
  return injector_ != nullptr && injector_->NodeKilled(node, UINT64_MAX);
}

bool KvCluster::NodeEverDrained(uint32_t node) const {
  if (injector_ == nullptr) {
    return false;
  }
  for (const FaultWindow& w : injector_->schedule()) {
    if (w.kind == FaultKind::kNodeDrain && w.node == node) {
      return true;
    }
  }
  return false;
}

}  // namespace prestore
