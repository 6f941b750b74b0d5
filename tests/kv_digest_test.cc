// Recorded end states of the KV workloads. Each case preloads a small store
// and runs YCSB-A on 2 cores, then checks the machine digest (DigestMachine:
// clocks, core and hierarchy stats, device meters, LLC content), the run's
// simulated cycles and its write amplification against values recorded
// before the value loops became word runs. A host-side change to the engine
// must leave every one of them as it is.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>

#include "bench/kv_bench.h"
#include "src/kv/clht.h"
#include "src/kv/masstree.h"
#include "src/kv/ycsb.h"
#include "src/sim/replay.h"

namespace prestore {
namespace {

struct KvDigestCase {
  const char* name;
  MachineConfig (*machine)();
  KvStoreKind kind;
  KvWritePolicy policy;
  uint32_t value_size;
  uint64_t digest;
  uint64_t cycles;
  double write_amplification;
};

MachineConfig BFast() { return MachineBFast(); }

constexpr uint32_t kThreads = 2;
constexpr uint32_t kOpsPerThread = 400;

// 2 MiB of 1 KiB values (the Machine A LLC's size), 4096 keys of 64 B.
uint64_t KeysFor(uint32_t value_size) {
  return value_size >= 1024 ? 2048 : 4096;
}

void PrintTo(const KvDigestCase& c, std::ostream* os) { *os << c.name; }

class KvDigest : public ::testing::TestWithParam<KvDigestCase> {};

TEST_P(KvDigest, MatchesRecordedEndState) {
  const KvDigestCase& c = GetParam();
  MachineConfig mcfg = c.machine();
  mcfg.num_cores = kThreads;
  Machine machine(mcfg);
  YcsbConfig cfg;
  cfg.workload = YcsbWorkload::kA;
  cfg.num_keys = KeysFor(c.value_size);
  cfg.value_size = c.value_size;
  cfg.threads = kThreads;
  cfg.ops_per_thread = kOpsPerThread;
  cfg.policy = c.policy;
  std::unique_ptr<KvStore> store;
  if (c.kind == KvStoreKind::kClht) {
    store = std::make_unique<ClhtMap>(machine, cfg.num_keys / 2);
  } else {
    store = std::make_unique<Masstree>(machine);
  }
  YcsbLoad(machine, *store, cfg);
  const YcsbResult r = YcsbRun(machine, *store, cfg);
  EXPECT_EQ(r.failed_gets, 0u);
  EXPECT_EQ(DigestMachine(machine, kThreads), c.digest)
      << std::hex << "0x" << DigestMachine(machine, kThreads);
  EXPECT_EQ(r.cycles, c.cycles);
  EXPECT_EQ(r.write_amplification, c.write_amplification)
      << std::hexfloat << r.write_amplification;
}

// Recorded at the engine that ran every value word as its own op.
INSTANTIATE_TEST_SUITE_P(
    Recorded, KvDigest,
    ::testing::Values(
        KvDigestCase{"MasstreeA1kBaseline", KvMachineA, KvStoreKind::kMasstree,
                     KvWritePolicy::kBaseline, 1024, 0x2ce61be555041947ULL,
                     10719761, 0x1.14c4ec4ec4ec5p+0},
        KvDigestCase{"MasstreeA1kClean", KvMachineA, KvStoreKind::kMasstree,
                     KvWritePolicy::kClean, 1024, 0x2db85d0d0f32261fULL,
                     11842238, 0x1.0e3adf7e88ff9p+0},
        KvDigestCase{"MasstreeA1kSkip", KvMachineA, KvStoreKind::kMasstree,
                     KvWritePolicy::kSkip, 1024, 0x3a9563b20e2f15b7ULL,
                     11548364, 0x1.0d3939af6ea7fp+0},
        KvDigestCase{"MasstreeA64Baseline", KvMachineA, KvStoreKind::kMasstree,
                     KvWritePolicy::kBaseline, 64, 0x10f0e8d4b0540535ULL,
                     739825, 0x1.c59579fc90528p+0},
        KvDigestCase{"MasstreeA64Clean", KvMachineA, KvStoreKind::kMasstree,
                     KvWritePolicy::kClean, 64, 0xf425c390ebf5a43bULL,
                     780343, 0x1.b1d81fe67ad0fp+0},
        KvDigestCase{"MasstreeA64Skip", KvMachineA, KvStoreKind::kMasstree,
                     KvWritePolicy::kSkip, 64, 0x923a0aefb6405ac5ULL,
                     747286, 0x1.93b405ab8464fp+0},
        KvDigestCase{"ClhtBFast1kBaseline", BFast, KvStoreKind::kClht,
                     KvWritePolicy::kBaseline, 1024, 0x160389b08ba4ca99ULL,
                     913052, 0x1p+0},
        KvDigestCase{"ClhtBFast1kClean", BFast, KvStoreKind::kClht,
                     KvWritePolicy::kClean, 1024, 0xdf41c9c14ea4848fULL,
                     791525, 0x1p+0},
        KvDigestCase{"ClhtBFast64Baseline", BFast, KvStoreKind::kClht,
                     KvWritePolicy::kBaseline, 64, 0xb9007bed6e96b06aULL,
                     202483, 0x1p+0},
        KvDigestCase{"ClhtBFast64Clean", BFast, KvStoreKind::kClht,
                     KvWritePolicy::kClean, 64, 0x4e08938c0a1ff47eULL,
                     216799, 0x1p+0},
        // Weak ordering: value words that miss L1 wait in the store buffer.
        KvDigestCase{"MasstreeBFast1kBaseline", BFast, KvStoreKind::kMasstree,
                     KvWritePolicy::kBaseline, 1024, 0x559b1077cecb4431ULL,
                     1003021, 0x1p+0},
        KvDigestCase{"MasstreeBFast64Baseline", BFast, KvStoreKind::kMasstree,
                     KvWritePolicy::kBaseline, 64, 0xb4d55e91383fe83aULL,
                     323256, 0x1p+0}),
    [](const ::testing::TestParamInfo<KvDigestCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace prestore
