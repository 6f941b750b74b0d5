// Op-level simulated costs (§5: "cleaning a cache line simply enqueues a
// cache line in the write combining buffers of the CPU, which takes on
// average 1 cycle"). Uses google-benchmark; the reported *simulated cycles*
// per op are exposed as a counter.
#include <benchmark/benchmark.h>

#include "src/sim/machine.h"

using namespace prestore;

namespace {

// Each fixture-less benchmark builds one small machine and reports the
// simulated cycle cost per operation as the "sim_cycles_per_op" counter.
// The op count is fixed: the simulated cost per op depends on how many ops
// ran (the cold-miss benches wrap their 16 MB buffer every 128-256K ops),
// so an iteration count picked from host time would make the counter move
// from run to run.
constexpr benchmark::IterationCount kOps = 1 << 20;

template <typename Fn>
void RunSim(benchmark::State& state, const MachineConfig& cfg, Fn&& body) {
  MachineConfig machine_cfg = cfg;
  machine_cfg.num_cores = 1;
  machine_cfg.target_region_bytes = 64ULL << 20;
  machine_cfg.dram_region_bytes = 8ULL << 20;
  Machine machine(machine_cfg);
  Core& core = machine.core(0);
  const SimAddr buf = machine.Alloc(16 << 20);
  uint64_t ops = 0;
  const uint64_t start_cycles = core.now();
  for (auto _ : state) {
    body(core, buf, ops);
    ++ops;
  }
  state.counters["sim_cycles_per_op"] = benchmark::Counter(
      static_cast<double>(core.now() - start_cycles) /
      static_cast<double>(ops == 0 ? 1 : ops));
}

void BM_L1HitLoad(benchmark::State& state) {
  RunSim(state, MachineA(), [](Core& core, SimAddr buf, uint64_t) {
    benchmark::DoNotOptimize(core.LoadU64(buf));
  });
}
BENCHMARK(BM_L1HitLoad)->Iterations(kOps);

void BM_L1HitStore(benchmark::State& state) {
  RunSim(state, MachineA(), [](Core& core, SimAddr buf, uint64_t) {
    core.StoreU64(buf, 1);
  });
}
BENCHMARK(BM_L1HitStore)->Iterations(kOps);

void BM_ColdStoreMiss(benchmark::State& state) {
  RunSim(state, MachineA(), [](Core& core, SimAddr buf, uint64_t ops) {
    core.StoreU64(buf + (ops * 64) % (16 << 20), ops);
  });
}
BENCHMARK(BM_ColdStoreMiss)->Iterations(kOps);

void BM_CleanIssueOnColdLines(benchmark::State& state) {
  // The §5 claim: issuing the clean itself is ~1 cycle (plus, here, the
  // store that dirties the line first).
  RunSim(state, MachineA(), [](Core& core, SimAddr buf, uint64_t ops) {
    const SimAddr line = buf + (ops * 64) % (16 << 20);
    core.StoreU64(line, ops);
    core.Prestore(line, 8, PrestoreOp::kClean);
  });
}
BENCHMARK(BM_CleanIssueOnColdLines)->Iterations(kOps);

void BM_DemoteIssue(benchmark::State& state) {
  RunSim(state, MachineBFast(), [](Core& core, SimAddr buf, uint64_t ops) {
    const SimAddr line = buf + (ops * 128) % (16 << 20);
    core.StoreU64(line, ops);
    core.Prestore(line, 8, PrestoreOp::kDemote);
  });
}
BENCHMARK(BM_DemoteIssue)->Iterations(kOps);

void BM_FenceAfterQuiesce(benchmark::State& state) {
  RunSim(state, MachineA(), [](Core& core, SimAddr, uint64_t) {
    core.Fence();
  });
}
BENCHMARK(BM_FenceAfterQuiesce)->Iterations(kOps);

void BM_FenceAfterFarWrite(benchmark::State& state) {
  RunSim(state, MachineBSlow(), [](Core& core, SimAddr buf, uint64_t ops) {
    core.StoreU64(buf + (ops * 128) % (16 << 20), ops);
    core.Fence();  // the §4.2 publication stall
  });
}
BENCHMARK(BM_FenceAfterFarWrite)->Iterations(kOps);

void BM_CasHotLine(benchmark::State& state) {
  RunSim(state, MachineA(), [](Core& core, SimAddr buf, uint64_t ops) {
    uint64_t expected = ops;
    core.CasU64(buf, expected, ops + 1);
  });
}
BENCHMARK(BM_CasHotLine)->Iterations(kOps);

}  // namespace

BENCHMARK_MAIN();
