// Open-loop load generation for the replicated cluster (DESIGN.md §11).
//
// `ycsb.threads` driver fibers multiplex `num_clients()` logical open-loop
// clients (client c belongs to driver c % D). Each client owns a
// deterministic arrival schedule, its own rng, and its own NodeHealthView;
// each driver owns one simulated core PER NODE MACHINE (submissions and
// response reads to node n are charged to driver core d of machine n).
//
// The failover state machine lives here, client-side:
//  - every attempt has a DECISION time (a pure function of the client's
//    schedule and its previous failed attempts, never a host clock) and an
//    arrival time one net hop later (RequestMsg::not_before);
//  - an attempt refused by the router's fault pre-check, or NACKed by the
//    node, costs one refusal round trip: decision += 2 * net, and the next
//    replica in the placement is tried;
//  - a node marked unhealthy (unhealthy_after consecutive failures) is
//    skipped for free until its capped-exponential probe time;
//  - an exhausted pass over the replica set costs one capped backoff;
//    max_attempts passes abandon the request as "failed" (never dropped).
//
// Determinism: the shard workers and the drivers run as fibers on one
// SimScheduler across the node machines, so the (node, status) outcome and
// the latency of every request are a pure function of seed, fault plan and
// quantum, for any pipeline depth.
#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "src/kv/ycsb.h"
#include "src/serve/cluster.h"
#include "src/serve/schedule_window.h"
#include "src/sim/scheduler.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace prestore {

namespace {

// Final status of one request (outcome log + per-request record).
enum class Outcome : uint8_t { kOk, kMiss, kFailed };

struct OutcomeRec {
  uint64_t client;
  uint64_t seq;
  uint64_t key;
  uint8_t op;  // ServeOp
  int32_t node;  // serving node, -1 when abandoned
  Outcome outcome;
};

struct Pending {
  uint64_t seq = 0;
  uint64_t key = 0;
  uint64_t submit = 0;    // scheduled arrival (absolute cycles)
  uint64_t decision = 0;  // current attempt's decision time (absolute)
  ServeOp op = ServeOp::kGet;
  std::array<uint32_t, 8> placement{};
  uint32_t cursor = 0;  // next placement index to try in this pass
  uint32_t pass = 0;
  uint32_t target = UINT32_MAX;  // node of the current attempt
  bool inflight = false;  // false: blocked on a full admission ring
};

struct LClient {
  uint32_t id = 0;
  uint64_t next_send = 0;
  uint32_t sent = 0;
  std::vector<Pending> pending;
  NodeHealthView health;
  Xoshiro256 rng;
  bool finished = false;

  LClient(uint32_t id_, uint64_t first_send, uint32_t nodes,
          const ServeConfig& cfg, uint64_t seed)
      : id(id_), next_send(first_send), health(nodes, cfg), rng(seed) {}
};

// Per-driver accounting, merged after the run.
struct DriverCtx {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t failed_gets = 0;
  uint64_t gave_up = 0;
  uint64_t refusals = 0;
  uint64_t nacks = 0;
  uint64_t retries = 0;
  uint64_t failovers = 0;
  std::vector<uint64_t> acked_put_tokens;
  LatencyMeter meter;
  std::vector<LatencyMeter> phase_meters;
  std::vector<uint64_t> phase_gets;
  std::vector<uint64_t> phase_puts;
  std::vector<OutcomeRec> outcomes;
};

class Driver {
 public:
  Driver(KvCluster& cluster, uint32_t driver, const ClusterRunOptions& opts,
         const ZipfianGenerator& zipf, const std::vector<FuncToken>& read_funcs,
         ScheduleWindow& board, uint64_t origin, DriverCtx& out)
      : cluster_(cluster),
        cfg_(cluster.config()),
        d_(driver),
        ndrivers_(cluster.num_drivers()),
        opts_(opts),
        zipf_(zipf),
        read_funcs_(read_funcs),
        board_(board),
        origin_(origin),
        measure_from_(origin + cluster.config().settle_cycles),
        read_ratio_(YcsbReadRatio(cluster.config().ycsb.workload)),
        net_(cluster.config().net_latency_cycles),
        out_(out) {}

  void Run() {
    const uint32_t nclients = cluster_.num_clients();
    const uint32_t total = cfg_.ycsb.ops_per_thread;
    const uint64_t interval = cfg_.open_loop_interval;
    for (uint32_t c = d_; c < nclients; c += ndrivers_) {
      // Stagger all logical clients across one interval (herd avoidance,
      // as in the single-machine open loop).
      clients_.emplace_back(c, origin_ + interval * c / nclients,
                            cluster_.num_nodes(), cfg_,
                            cfg_.ycsb.seed * 1315423911ULL + c);
      if (total == 0) {
        clients_.back().finished = true;
        board_.Advance(c, UINT64_MAX);
      }
    }
    size_t active = 0;
    for (const LClient& lc : clients_) {
      active += lc.finished ? 0 : 1;
    }
    while (active > 0) {
      bool progress = DrainResponses();
      for (LClient& lc : clients_) {
        if (lc.finished) {
          continue;
        }
        // Re-submit attempts blocked on a full admission ring.
        for (size_t i = 0; i < lc.pending.size();) {
          if (!lc.pending[i].inflight && FinishAttempt(lc, i)) {
            progress = true;
          } else {
            ++i;
          }
        }
        // New request when the schedule and the inflight cap allow it.
        if (lc.sent < total && lc.pending.size() < cfg_.max_inflight &&
            board_.MayFire(lc.next_send)) {
          StartRequest(lc, total);
          progress = true;
        }
        if (lc.sent == total && lc.pending.empty()) {
          lc.finished = true;
          --active;
        }
      }
      if (!progress) {
        cluster_.driver_core(d_, 0).EndSlice();
      }
    }
  }

 private:
  LClient& ClientFor(uint64_t client_id) {
    return clients_[client_id / ndrivers_];  // ids d, d+D, d+2D, ...
  }

  size_t PendingIndex(const LClient& lc, uint64_t seq) const {
    for (size_t i = 0; i < lc.pending.size(); ++i) {
      if (lc.pending[i].seq == seq) {
        return i;
      }
    }
    return lc.pending.size();
  }

  void StartRequest(LClient& lc, uint32_t total) {
    Pending p;
    p.seq = lc.sent + 1;
    p.key = zipf_.NextScrambled(lc.rng) + 1;
    const bool is_read = lc.rng.NextDouble() < read_ratio_;
    p.op = is_read ? ServeOp::kGet : ServeOp::kPut;
    p.submit = lc.next_send;
    p.decision = lc.next_send;
    cluster_.router().Placement(p.key, p.placement.data());
    ++lc.sent;
    lc.next_send += cfg_.open_loop_interval;
    board_.Advance(lc.id, lc.sent == total ? UINT64_MAX : lc.next_send);
    lc.pending.push_back(p);
    FinishAttempt(lc, lc.pending.size() - 1);
  }

  // Drives pending[i]'s failover state machine until the request is in
  // flight, blocked on backpressure, or abandoned. Returns true when the
  // pending entry was REMOVED (abandoned) — callers iterating must not
  // advance their index in that case.
  bool FinishAttempt(LClient& lc, size_t i) {
    Pending& p = lc.pending[i];
    while (true) {
      while (p.cursor < cluster_.router().replication()) {
        const uint32_t n = p.placement[p.cursor];
        if (!lc.health.Usable(n, p.decision)) {
          ++p.cursor;  // marked unhealthy: skip without paying the RTT
          continue;
        }
        RequestMsg req;
        req.op = static_cast<uint64_t>(p.op);
        req.key = p.key;
        req.client = lc.id;
        req.seq = p.seq;
        req.submit_time = p.submit;
        req.not_before = p.decision + net_;
        switch (cluster_.TrySubmit(d_, n, req)) {
          case SubmitStatus::kOk:
            p.inflight = true;
            p.target = n;
            return false;
          case SubmitStatus::kRetryAfter:
            // Admission ring transiently full: a queueing condition, so it
            // must not move the schedule-derived decision time. Leave the
            // attempt parked; the outer loop retries after draining (count
            // the event once, not once per poll).
            if (p.target != n || p.inflight) {
              ++out_.retries;
            }
            p.inflight = false;
            p.target = n;
            return false;
          case SubmitStatus::kRefused:
            // The router knows (deterministically) the node refuses
            // attempts decided now; charge the discovery round trip.
            ++out_.refusals;
            p.decision += 2 * net_;
            lc.health.Fail(n, p.decision);
            ++p.cursor;
            break;
        }
      }
      ++p.pass;
      p.cursor = 0;
      if (p.pass >= cfg_.max_attempts) {
        ++out_.gave_up;
        RecordOutcome(lc.id, p, -1, Outcome::kFailed);
        lc.pending.erase(lc.pending.begin() + static_cast<long>(i));
        return true;
      }
      const uint32_t shift = std::min<uint32_t>(p.pass - 1, 16);
      p.decision += std::min(kFailoverBackoffCapCycles,
                             kFailoverBackoffBaseCycles << shift);
    }
  }

  bool DrainResponses() {
    bool any = false;
    ResponseMsg resp;
    for (uint32_t n = 0; n < cluster_.num_nodes(); ++n) {
      while (cluster_.HasResponse(n, d_) &&
             cluster_.TryGetResponse(n, d_, &resp)) {
        any = true;
        LClient& lc = ClientFor(resp.client);
        const size_t i = PendingIndex(lc, resp.seq);
        if (i == lc.pending.size()) {
          continue;  // stale response for an abandoned request
        }
        if (resp.status == kStatusRetryAfter) {
          // The attempt arrived inside a fault window (decided just before
          // it opened). Same deterministic cost as a router refusal.
          Pending& p = lc.pending[i];
          ++out_.nacks;
          p.inflight = false;
          p.decision += 2 * net_;
          lc.health.Fail(n, p.decision);
          ++p.cursor;
          FinishAttempt(lc, i);
          continue;
        }
        Resolve(lc, i, resp, n);
      }
    }
    return any;
  }

  void Resolve(LClient& lc, size_t i, const ResponseMsg& resp, uint32_t node) {
    Pending& p = lc.pending[i];
    lc.health.Success(node);
    // Latency spans the full modeled round trip: scheduled arrival through
    // service completion plus the response's net hop. Failover detours are
    // inside not_before, so they are inside this number too.
    const uint64_t latency = resp.completion_time + net_ - resp.submit_time;
    const size_t phase = PhaseOf(resp.submit_time);
    if (resp.submit_time >= measure_from_) {
      out_.meter.Add(p.op, latency);
      out_.phase_meters[phase].Add(p.op, latency);
    }
    if (p.op == ServeOp::kGet) {
      ++out_.gets;
      ++out_.phase_gets[phase];
      if (resp.status == kStatusOk) {
        // Consume the hit on the SERVING node's machine: response-value
        // reads keep that node's LLC honest about the serving mix.
        ReadValue(cluster_.driver_core(d_, node), read_funcs_[node],
                  resp.value_addr, cfg_.ycsb.value_size);
      } else {
        ++out_.failed_gets;
      }
    } else {
      ++out_.puts;
      ++out_.phase_puts[phase];
      if (resp.status == kStatusOk) {
        out_.acked_put_tokens.push_back(KvCluster::Token(lc.id, p.seq));
      }
    }
    if (node != p.placement[0]) {
      ++out_.failovers;
    }
    RecordOutcome(lc.id, p, static_cast<int32_t>(node),
                  resp.status == kStatusOk ? Outcome::kOk : Outcome::kMiss);
    lc.pending.erase(lc.pending.begin() + static_cast<long>(i));
  }

  size_t PhaseOf(uint64_t submit_abs) const {
    const uint64_t rel = submit_abs > origin_ ? submit_abs - origin_ : 0;
    size_t k = 0;
    while (k < opts_.phase_marks.size() && rel >= opts_.phase_marks[k]) {
      ++k;
    }
    return k;
  }

  void RecordOutcome(uint64_t client, const Pending& p, int32_t node,
                     Outcome outcome) {
    if (!opts_.record_outcomes) {
      return;
    }
    out_.outcomes.push_back(OutcomeRec{
        client, p.seq, p.key, static_cast<uint8_t>(p.op), node, outcome});
  }

  KvCluster& cluster_;
  const ServeConfig& cfg_;
  const uint32_t d_;
  const uint32_t ndrivers_;
  const ClusterRunOptions& opts_;
  const ZipfianGenerator& zipf_;
  const std::vector<FuncToken>& read_funcs_;
  ScheduleWindow& board_;
  const uint64_t origin_;
  const uint64_t measure_from_;
  const double read_ratio_;
  const uint64_t net_;
  DriverCtx& out_;
  std::vector<LClient> clients_;
};

std::string SerializeOutcomes(std::vector<OutcomeRec>& recs) {
  // Sorted by (client, seq): the log reads per client, whatever order the
  // drivers resolved requests in.
  std::sort(recs.begin(), recs.end(),
            [](const OutcomeRec& a, const OutcomeRec& b) {
              return a.client != b.client ? a.client < b.client
                                          : a.seq < b.seq;
            });
  std::string out;
  out.reserve(recs.size() * 48);
  char line[128];
  for (const OutcomeRec& r : recs) {
    const char* status = r.outcome == Outcome::kOk     ? "ok"
                         : r.outcome == Outcome::kMiss ? "miss"
                                                       : "failed";
    std::snprintf(line, sizeof(line),
                  "c=%llu seq=%llu op=%s key=%llu node=%d status=%s\n",
                  static_cast<unsigned long long>(r.client),
                  static_cast<unsigned long long>(r.seq),
                  static_cast<ServeOp>(r.op) == ServeOp::kGet ? "get" : "put",
                  static_cast<unsigned long long>(r.key), r.node, status);
    out += line;
  }
  return out;
}

}  // namespace

ClusterResult RunClusterYcsb(KvCluster& cluster,
                             const ClusterRunOptions& options) {
  const ServeConfig& cfg = cluster.config();
  const uint32_t nnodes = cluster.num_nodes();
  const uint32_t nshards = cluster.num_shards();
  const uint32_t ndrivers = cluster.num_drivers();
  const uint32_t nclients = cluster.num_clients();
  const size_t nphases = options.phase_marks.size() + 1;

  cluster.Preload();
  uint64_t t0 = 0;
  for (uint32_t n = 0; n < nnodes; ++n) {
    Machine& m = cluster.machine(n);
    m.FlushAll();
    m.QuiesceDevices();
    m.ResetStats();
    t0 = std::max(t0, m.GlobalTime());
  }
  // The run's origin: rounding up to a large quantum keeps the origin (and
  // with it every run-relative time) fixed across small preload changes.
  constexpr uint64_t kOriginQuantum = 1ULL << 20;
  const uint64_t origin = (t0 + kOriginQuantum - 1) / kOriginQuantum *
                          kOriginQuantum;
  cluster.BeginRun(origin);

  const ZipfianGenerator zipf(cfg.ycsb.num_keys, cfg.ycsb.zipf_theta);
  ScheduleWindow board(nclients, cfg.open_loop_interval,
                       std::max(1u, cfg.max_inflight), origin);
  std::vector<FuncToken> read_funcs;
  for (uint32_t n = 0; n < nnodes; ++n) {
    read_funcs.push_back(FuncToken{cluster.machine(n).registry().Intern(
        "clusterReadValue", "cluster_loadgen.cc")});
  }
  std::vector<DriverCtx> ctxs(ndrivers);
  for (DriverCtx& ctx : ctxs) {
    ctx.phase_meters.resize(nphases);
    ctx.phase_gets.assign(nphases, 0);
    ctx.phase_puts.assign(nphases, 0);
  }
  // N*S shard workers, each homed on its worker core, and D drivers, which
  // own a core on every node and are resumed every round — all fibers of
  // one scheduler across the node machines.
  SimScheduler scheduler;
  for (uint32_t n = 0; n < nnodes; ++n) {
    scheduler.AddMachine(cluster.machine(n));
  }
  for (uint32_t n = 0; n < nnodes; ++n) {
    for (uint32_t s = 0; s < nshards; ++s) {
      scheduler.Spawn(&cluster.machine(n).core(s),
                      [&cluster, n, s] { cluster.WorkerLoop(n, s); });
    }
  }
  uint32_t drivers_left = ndrivers;
  for (uint32_t d = 0; d < ndrivers; ++d) {
    scheduler.Spawn(nullptr, [&, d] {
      Driver(cluster, d, options, zipf, read_funcs, board, origin, ctxs[d])
          .Run();
      if (--drivers_left == 0) {
        cluster.DriversDone();
      }
    });
  }
  scheduler.Run(origin);

  ClusterResult result;
  for (uint32_t n = 0; n < nnodes; ++n) {
    cluster.machine(n).FlushAll();
    const uint64_t t = cluster.machine(n).GlobalTime();
    result.cycles = std::max(result.cycles, t > origin ? t - origin : 0);
  }

  LatencyMeter merged;
  std::vector<LatencyMeter> phase_merged(nphases);
  std::vector<uint64_t> phase_gets(nphases, 0);
  std::vector<uint64_t> phase_puts(nphases, 0);
  std::vector<OutcomeRec> outcomes;
  for (DriverCtx& ctx : ctxs) {
    result.gets += ctx.gets;
    result.puts += ctx.puts;
    result.failed_gets += ctx.failed_gets;
    result.gave_up += ctx.gave_up;
    result.refusals += ctx.refusals;
    result.nacks += ctx.nacks;
    result.retries += ctx.retries;
    result.failovers += ctx.failovers;
    result.acked_puts += ctx.acked_put_tokens.size();
    for (const uint64_t token : ctx.acked_put_tokens) {
      if (!cluster.AppliedOnLiveNode(token)) {
        ++result.lost_acked_puts;
      }
    }
    merged.Merge(ctx.meter);
    for (size_t k = 0; k < nphases; ++k) {
      phase_merged[k].Merge(ctx.phase_meters[k]);
      phase_gets[k] += ctx.phase_gets[k];
      phase_puts[k] += ctx.phase_puts[k];
    }
    outcomes.insert(outcomes.end(), ctx.outcomes.begin(),
                    ctx.outcomes.end());
  }
  result.ops = result.gets + result.puts;
  result.get_latency = merged.Summary(ServeOp::kGet);
  result.put_latency = merged.Summary(ServeOp::kPut);
  for (size_t k = 0; k < nphases; ++k) {
    ClusterPhase phase;
    phase.name = "phase" + std::to_string(k);
    phase.from = k == 0 ? 0 : options.phase_marks[k - 1];
    phase.to = k < options.phase_marks.size() ? options.phase_marks[k]
                                              : result.cycles;
    phase.gets = phase_gets[k];
    phase.puts = phase_puts[k];
    phase.ops = phase.gets + phase.puts;
    if (phase.to > phase.from) {
      phase.throughput_per_mcycle = static_cast<double>(phase.ops) * 1e6 /
                                    static_cast<double>(phase.to - phase.from);
    }
    phase.get_latency = phase_merged[k].Summary(ServeOp::kGet);
    phase.put_latency = phase_merged[k].Summary(ServeOp::kPut);
    result.phases.push_back(std::move(phase));
  }
  result.nodes = cluster.NodeReports();
  if (options.record_outcomes) {
    result.outcome_log = SerializeOutcomes(outcomes);
  }
  return result;
}

}  // namespace prestore
