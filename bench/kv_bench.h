// Shared YCSB driver for the KV-store benches (Figures 10-14).
#ifndef BENCH_KV_BENCH_H_
#define BENCH_KV_BENCH_H_

#include <memory>
#include <string>

#include "src/kv/clht.h"
#include "src/kv/masstree.h"
#include "src/kv/ycsb.h"

namespace prestore {

enum class KvStoreKind { kClht, kMasstree };

// The Machine A policies of Figs 10-12, in their table's column order.
inline constexpr KvWritePolicy kKvPolicies[] = {
    KvWritePolicy::kBaseline, KvWritePolicy::kClean, KvWritePolicy::kSkip};

// Machine-A calibration for the KV figures (see EXPERIMENTS.md): the paper
// drives the PMEM to saturation with 10 application threads; the simulated
// cores issue traffic at a different rate, so the media bandwidth and the
// effective per-stream internal buffering are scaled so that the baseline
// YCSB-A run is media-bound, as on the real machine.
inline MachineConfig KvMachineA() {
  MachineConfig cfg = MachineA();
  cfg.target.media_cycles_per_byte = 0.9;
  return cfg;
}

inline YcsbResult RunKvBench(MachineConfig machine_cfg, KvStoreKind kind,
                             uint32_t value_size, KvWritePolicy policy,
                             uint32_t threads, uint32_t ops_per_thread,
                             YcsbWorkload workload = YcsbWorkload::kA) {
  machine_cfg.num_cores = threads;
  // Size the keyspace so the value set is ~16x the LLC (memory-resident, as
  // with the paper's 100M keys) while fitting the simulated region.
  const uint64_t num_keys =
      std::max<uint64_t>(2048, (32ULL << 20) / value_size);
  machine_cfg.target_region_bytes =
      std::max<uint64_t>(machine_cfg.target_region_bytes,
                         num_keys * value_size * 2 + (256ULL << 20));
  Machine machine(machine_cfg);

  std::unique_ptr<KvStore> store;
  if (kind == KvStoreKind::kClht) {
    store = std::make_unique<ClhtMap>(machine, num_keys / 2);
  } else {
    store = std::make_unique<Masstree>(machine);
  }

  YcsbConfig cfg;
  cfg.workload = workload;
  cfg.num_keys = num_keys;
  cfg.value_size = value_size;
  cfg.threads = threads;
  cfg.ops_per_thread = ops_per_thread;
  cfg.policy = policy;
  YcsbLoad(machine, *store, cfg);
  return YcsbRun(machine, *store, cfg);
}

}  // namespace prestore

#endif  // BENCH_KV_BENCH_H_
