// Pre-generated YCSB-like access traces and a replay driver for measuring
// the simulation engine's own host-side throughput (DESIGN.md §10).
//
// The trace is generated once, host-side, outside the measured window, so a
// replay exercises pure engine work: store-buffer bookkeeping, L1 probes,
// LLC accesses, device timing. Two replay modes:
//  - sliced: worker i's trace runs on core i as a fiber on the
//    deterministic scheduler (scheduler.h) — the execution model every
//    workload uses, bit-deterministic for a fixed trace and quantum;
//  - sequential: the traces run to completion one core at a time on the
//    calling host thread — bit-deterministic for a fixed seed, the basis of
//    the recorded determinism digests in tests/sim_determinism_test.cc.
// In both modes each op goes through the core's ordinary per-line timing
// path (LoadU64 / StoreU64 / Prestore), the same path every other workload
// takes.
#ifndef SRC_SIM_REPLAY_H_
#define SRC_SIM_REPLAY_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/sim/harness.h"
#include "src/sim/machine.h"
#include "src/util/rng.h"
#include "src/util/zipf.h"

namespace prestore {

enum class ReplayOpKind : uint8_t {
  kLoad,   // one line-granular 8-byte load
  kStore,  // one line-granular 8-byte store
  kClean,  // clean pre-store sweep over [addr, addr + size)
};

struct ReplayOp {
  uint64_t addr = 0;
  uint32_t size = 0;  // kClean only: bytes covered by the sweep
  ReplayOpKind kind = ReplayOpKind::kLoad;
};

struct ReplayTraceConfig {
  uint32_t workers = 4;
  // Line-granular loads+stores per worker (cleans ride on top).
  uint64_t ops_per_worker = 100000;
  uint64_t keys_per_worker = 4096;  // private value blocks per worker
  uint64_t shared_keys = 1024;      // value blocks all workers touch
  double shared_fraction = 0.125;   // fraction of ops against shared keys
  uint32_t value_size = 256;        // bytes per value block
  double read_ratio = 0.5;          // YCSB-A-like mix
  // Key popularity: zipfian with this theta; 0 selects a uniform,
  // integer-only key stream (no libm involved), which keeps recorded
  // digests portable across hosts.
  double zipf_theta = 0.99;
  // Every Nth PUT closes with a clean pre-store over the value it wrote
  // (the §7.2.3 craft-then-clean shape). 0 disables cleans.
  uint32_t clean_period = 8;
  // Target LLC-miss fraction of the private-key stream, or negative for
  // "off" (the default key distribution above, byte-identical to traces
  // generated before the knob existed). When set in [0, 1], each private
  // draw picks with probability miss_mix a key from the cold tail of the
  // arena (uniform — with the arena sized well past the LLC these are
  // steady-state LLC misses) and otherwise a key from a small hot head
  // sized to stay L1-resident (steady-state L1 hits). The knob therefore
  // dials the actual hit/miss composition of the op stream directly,
  // which is what the miss-leg benchmarks need: miss_mix=0 is the all-hit
  // ceiling, miss_mix=1 the all-miss floor. Shared-key draws and the
  // read/clean mix are unaffected.
  double miss_mix = -1.0;
  uint64_t seed = 42;
};

struct ReplayTrace {
  std::vector<std::vector<ReplayOp>> per_worker;
  uint64_t total_accesses = 0;  // loads + stores across all workers
};

struct ReplayResult {
  uint64_t accesses = 0;     // loads + stores executed
  uint64_t sim_cycles = 0;   // simulated elapsed cycles (slowest core)
  double host_seconds = 0.0;
  double accesses_per_sec = 0.0;  // host-side engine throughput
  MachineStats hierarchy;  // aggregated shared-hierarchy counters
  uint64_t target_media_bytes = 0;
};

// Lays out one shared arena plus one private arena per worker in the target
// region and pre-generates each worker's op list. Deterministic for a fixed
// config on a fresh machine (allocation order is part of the trace).
inline ReplayTrace GenerateReplayTrace(Machine& machine,
                                       const ReplayTraceConfig& cfg) {
  const uint32_t line = machine.config().line_size;
  const uint32_t value_size =
      cfg.value_size < line ? line : cfg.value_size - cfg.value_size % line;
  const uint32_t value_lines = value_size / line;

  const SimAddr shared_base =
      machine.Alloc(cfg.shared_keys * value_size, Region::kTarget);
  std::vector<SimAddr> worker_base(cfg.workers);
  for (uint32_t w = 0; w < cfg.workers; ++w) {
    worker_base[w] =
        machine.Alloc(cfg.keys_per_worker * value_size, Region::kTarget);
  }

  ReplayTrace trace;
  trace.per_worker.resize(cfg.workers);
  const bool zipf = cfg.zipf_theta > 0.0;
  ZipfianGenerator private_gen(cfg.keys_per_worker,
                               zipf ? cfg.zipf_theta : 0.5);
  ZipfianGenerator shared_gen(cfg.shared_keys, zipf ? cfg.zipf_theta : 0.5);
  // miss_mix partitions the private arena into a hot head that fits in half
  // the machine's L1 (steady-state hits) and a cold tail (steady-state LLC
  // misses once the arena outgrows the LLC). Clamped so both partitions are
  // nonempty for any arena size.
  const bool mix = cfg.miss_mix >= 0.0 && cfg.keys_per_worker > 1;
  const uint64_t l1_lines =
      machine.config().l1.NumSets() * machine.config().l1.ways;
  uint64_t hot_keys = l1_lines / 2 / value_lines;
  if (hot_keys < 1) {
    hot_keys = 1;
  }
  if (hot_keys > cfg.keys_per_worker / 2) {
    hot_keys = cfg.keys_per_worker / 2;
  }
  const double miss_mix = cfg.miss_mix < 1.0 ? cfg.miss_mix : 1.0;
  for (uint32_t w = 0; w < cfg.workers; ++w) {
    Xoshiro256 rng(SplitMix64(cfg.seed ^ (0x9e37ULL * (w + 1))).Next());
    std::vector<ReplayOp>& ops = trace.per_worker[w];
    ops.reserve(cfg.ops_per_worker + cfg.ops_per_worker / 16);
    uint64_t accesses = 0;
    uint64_t puts = 0;
    while (accesses < cfg.ops_per_worker) {
      const bool shared = rng.NextDouble() < cfg.shared_fraction;
      const uint64_t nkeys = shared ? cfg.shared_keys : cfg.keys_per_worker;
      uint64_t key;
      if (mix && !shared) {
        key = rng.NextDouble() < miss_mix
                  ? hot_keys + rng.Below(cfg.keys_per_worker - hot_keys)
                  : rng.Below(hot_keys);
      } else if (zipf) {
        key = shared ? shared_gen.NextScrambled(rng)
                     : private_gen.NextScrambled(rng);
      } else {
        key = rng.Below(nkeys);
      }
      const SimAddr value =
          (shared ? shared_base : worker_base[w]) + key * value_size;
      const bool read = rng.NextDouble() < cfg.read_ratio;
      for (uint32_t l = 0; l < value_lines; ++l) {
        ops.push_back(ReplayOp{value + l * line, 0,
                               read ? ReplayOpKind::kLoad
                                    : ReplayOpKind::kStore});
      }
      accesses += value_lines;
      if (!read && cfg.clean_period != 0 &&
          ++puts % cfg.clean_period == 0) {
        ops.push_back(ReplayOp{value, value_size, ReplayOpKind::kClean});
      }
    }
    trace.total_accesses += accesses;
  }
  return trace;
}

namespace replay_internal {

inline void RunOne(Core& core, const ReplayOp& op) {
  switch (op.kind) {
    case ReplayOpKind::kLoad:
      core.LoadU64(op.addr);
      break;
    case ReplayOpKind::kStore:
      core.StoreU64(op.addr, op.addr ^ 0x5aa5a55aULL);
      break;
    case ReplayOpKind::kClean:
      core.Prestore(op.addr, op.size, PrestoreOp::kClean);
      break;
  }
}

inline void RunOps(Core& core, const std::vector<ReplayOp>& ops) {
  for (const ReplayOp& op : ops) {
    RunOne(core, op);
  }
}

inline ReplayResult Finish(Machine& machine, const ReplayTrace& trace,
                           uint64_t start_cycles, double host_seconds) {
  ReplayResult result;
  result.accesses = trace.total_accesses;
  result.host_seconds = host_seconds;
  result.accesses_per_sec =
      host_seconds > 0.0
          ? static_cast<double>(trace.total_accesses) / host_seconds
          : 0.0;
  machine.FlushAll();  // settle dirty state so media accounting is complete
  result.sim_cycles = machine.GlobalTime() - start_cycles;
  result.hierarchy = machine.hierarchy_stats();
  result.target_media_bytes = machine.target().Stats().media_bytes_written;
  return result;
}

}  // namespace replay_internal

struct ReplaySlicedOptions {
  uint64_t quantum = BandwidthMeter::kWindow;  // cycles per scheduler round
};

// Sliced replay: worker i's ops on core i, run by RunParallel with the
// given quantum. With a quantum larger than the whole run, round 0 runs
// each core to completion in core order and the result is bit-identical to
// ReplaySequential.
inline ReplayResult ReplaySliced(Machine& machine, const ReplayTrace& trace,
                                 const ReplaySlicedOptions& options = {}) {
  SchedulerConfig scfg;
  scfg.quantum = options.quantum;
  const uint64_t start_cycles = machine.GlobalTime();
  const auto t0 = std::chrono::steady_clock::now();
  RunParallel(
      machine, static_cast<uint32_t>(trace.per_worker.size()),
      [&](Core& core, uint32_t w) {
        replay_internal::RunOps(core, trace.per_worker[w]);
      },
      scfg);
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return replay_internal::Finish(machine, trace, start_cycles, dt.count());
}

// Sequential replay: each worker's ops run to completion on its core, in
// worker order, on the calling thread. With a fixed seed the entire machine
// end state is bit-reproducible, so its digest can be recorded and compared
// across engine versions.
inline ReplayResult ReplaySequential(Machine& machine,
                                     const ReplayTrace& trace) {
  const uint64_t start_cycles = machine.GlobalTime();
  const auto t0 = std::chrono::steady_clock::now();
  for (uint32_t w = 0; w < trace.per_worker.size(); ++w) {
    replay_internal::RunOps(machine.core(w), trace.per_worker[w]);
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - t0;
  return replay_internal::Finish(machine, trace, start_cycles, dt.count());
}

// FNV-1a digest of the machine's observable simulation state: per-core
// clocks, instruction counts and stats, aggregated hierarchy counters,
// device meters, and the (sorted) LLC content. Any engine change that
// alters a simulated result — cycle counts, media bytes, eviction
// decisions — changes this digest. Call only when no cores are running.
inline uint64_t DigestMachine(Machine& machine, uint32_t workers) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= v & 0xff;
      h *= 0x100000001b3ULL;
      v >>= 8;
    }
  };
  for (uint32_t i = 0; i < workers; ++i) {
    Core& core = machine.core(i);
    mix(core.now());
    mix(core.icount());
    const CoreStats& s = core.stats();
    mix(s.loads);
    mix(s.stores);
    mix(s.l1_hits);
    mix(s.l1_misses);
    mix(s.sb_forwards);
    mix(s.fences);
    mix(s.fence_stall_cycles);
    mix(s.atomics);
    mix(s.prestores_demote);
    mix(s.prestores_clean);
    mix(s.nt_lines);
    mix(s.cycles_load_miss);
    mix(s.publish_latency_sum);
  }
  const auto& hs = machine.hierarchy_stats();
  mix(hs.llc_hits);
  mix(hs.llc_misses);
  mix(hs.llc_evictions);
  mix(hs.back_invalidations);
  mix(hs.interventions);
  mix(hs.wbq_stall_cycles);
  mix(hs.dir_upgrades);
  for (Device* dev : {&machine.dram(), &machine.target()}) {
    const DeviceStats ds = dev->Stats();
    mix(ds.reads);
    mix(ds.writes);
    mix(ds.bytes_read);
    mix(ds.bytes_received);
    mix(ds.media_bytes_written);
    mix(ds.directory_accesses);
  }
  mix(machine.GlobalTime());
  for (uint64_t line : machine.LlcValidLines()) {
    mix(line);
  }
  return h;
}

}  // namespace prestore

#endif  // SRC_SIM_REPLAY_H_
