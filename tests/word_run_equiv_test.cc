// Word runs (Core::LoadU64s, StoreU64s, StoreNtU64s) against the loops of
// single-word ops they stand for. Random per-core programs mix runs of 0-300
// words (aligned and unaligned starts, crossing lines, on lines the cores
// share) with fences, atomics, clean and demote pre-stores, spins and plain
// words. Each program runs twice, once through the word runs and once as
// single-word loops, and everything observable must match: the machine
// digest, every CoreStats field, clocks and icounts, the loaded words, every
// L1 and LLC line with its metadata and the set replacement state, and host
// memory. With a trace sink installed the traces match record for record.
// Quanta down to 1 cycle put slice ends inside the runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "src/sim/harness.h"
#include "src/sim/replay.h"
#include "src/util/rng.h"

namespace prestore {
namespace {

enum class OpKind : uint8_t {
  kLoadRun,
  kStoreRun,
  kNtRun,
  kLoad,
  kStore,
  kFence,
  kCas,
  kFetchAdd,
  kClean,
  kDemote,
  kSpin,
  kExecute,
};

struct Op {
  OpKind kind;
  uint64_t offset;  // bytes into the shared buffer
  uint32_t words;   // run length, or pre-store size in words
  uint64_t value;
};

using Program = std::vector<std::vector<Op>>;  // one op list per core

constexpr uint64_t kBufferBytes = 8 << 10;  // every core's runs land here
constexpr uint32_t kMaxRunWords = 300;
constexpr uint32_t kOpsPerCore = 30;

Program MakeProgram(uint64_t seed, uint32_t cores) {
  Xoshiro256 rng(seed);
  Program program(cores);
  for (std::vector<Op>& ops : program) {
    for (uint32_t i = 0; i < kOpsPerCore; ++i) {
      Op op{};
      const uint64_t pick = rng.Below(100);
      op.words = static_cast<uint32_t>(rng.Below(kMaxRunWords + 1));
      op.offset =
          rng.Below((kBufferBytes - 8 * (kMaxRunWords + 1)) / 8) * 8;
      if (rng.Below(4) == 0) {
        op.offset += 1 + rng.Below(7);  // unaligned start
      }
      op.value = rng.Next();
      if (pick < 25) {
        op.kind = OpKind::kLoadRun;
      } else if (pick < 50) {
        op.kind = OpKind::kStoreRun;
      } else if (pick < 62) {
        op.kind = OpKind::kNtRun;
      } else if (pick < 67) {
        op.kind = OpKind::kLoad;
      } else if (pick < 72) {
        op.kind = OpKind::kStore;
      } else if (pick < 77) {
        op.kind = OpKind::kFence;
      } else if (pick < 81) {
        op.kind = OpKind::kCas;
      } else if (pick < 84) {
        op.kind = OpKind::kFetchAdd;
      } else if (pick < 89) {
        op.kind = OpKind::kClean;
      } else if (pick < 93) {
        op.kind = OpKind::kDemote;
      } else if (pick < 97) {
        op.kind = OpKind::kSpin;
      } else {
        op.kind = OpKind::kExecute;
      }
      ops.push_back(op);
    }
  }
  return program;
}

class RecordingSink : public TraceSink {
 public:
  void Record(const TraceRecord& rec) override { records.push_back(rec); }
  std::vector<TraceRecord> records;
};

// Runs `op` on `core`; loaded words are folded into `*loaded`.
void Apply(Core& core, SimAddr buffer, const Op& op, bool word_runs,
           uint64_t* loaded) {
  const SimAddr addr = buffer + op.offset;
  const SimAddr aligned = buffer + op.offset / 8 * 8;
  uint64_t words[kMaxRunWords];
  for (uint32_t i = 0; i < op.words; ++i) {
    words[i] = op.value + i * 0x9e3779b97f4a7c15ULL;
  }
  switch (op.kind) {
    case OpKind::kLoadRun:
      if (word_runs) {
        core.LoadU64s(addr, words, op.words);
      } else {
        for (uint32_t i = 0; i < op.words; ++i) {
          words[i] = core.LoadU64(addr + 8 * i);
        }
      }
      for (uint32_t i = 0; i < op.words; ++i) {
        *loaded = *loaded * 31 + words[i];
      }
      break;
    case OpKind::kStoreRun:
      if (word_runs) {
        core.StoreU64s(addr, words, op.words);
      } else {
        for (uint32_t i = 0; i < op.words; ++i) {
          core.StoreU64(addr + 8 * i, words[i]);
        }
      }
      break;
    case OpKind::kNtRun:
      if (word_runs) {
        core.StoreNtU64s(addr, words, op.words);
      } else {
        for (uint32_t i = 0; i < op.words; ++i) {
          core.StoreNtU64(addr + 8 * i, words[i]);
        }
      }
      break;
    case OpKind::kLoad:
      *loaded = *loaded * 31 + core.LoadU64(addr);
      break;
    case OpKind::kStore:
      core.StoreU64(addr, op.value);
      break;
    case OpKind::kFence:
      core.Fence();
      break;
    case OpKind::kCas: {
      uint64_t expected = op.value;
      core.CasU64(aligned, expected, op.value + 1);
      *loaded = *loaded * 31 + expected;
      break;
    }
    case OpKind::kFetchAdd:
      *loaded = *loaded * 31 + core.FetchAddU64(aligned, op.value);
      break;
    case OpKind::kClean:
      core.Prestore(addr, 8 * op.words, PrestoreOp::kClean);
      break;
    case OpKind::kDemote:
      core.Prestore(addr, 8 * op.words, PrestoreOp::kDemote);
      break;
    case OpKind::kSpin:
      // Only a core behind its peers spins: a pause that cannot catch up
      // ends the slice without moving any clock, and a round of nothing
      // but those is the scheduler's deadlock.
      if (core.now() < core.machine().ApproxGlobalTime()) {
        core.SpinPause();
      } else {
        core.Execute(1);
      }
      break;
    case OpKind::kExecute:
      core.Execute(1 + op.words % 64);
      break;
  }
}

// Every line of `cache` with its metadata, and each set's replacement
// scalars and way hint.
void AppendCache(const SetAssocCache& cache, std::vector<uint64_t>* out) {
  for (uint64_t set = 0; set < cache.num_sets(); ++set) {
    out->push_back(cache.DebugWayHint(set));
    out->push_back(cache.DebugPlruBits(set));
    out->push_back(cache.DebugStamp(set));
    const CacheLineMeta* meta = cache.SetData(set);
    for (uint32_t w = 0; w < cache.config().ways; ++w) {
      out->push_back(meta[w].line_addr);
      out->push_back(meta[w].valid);
      out->push_back(meta[w].dirty);
      out->push_back(meta[w].exclusive);
      out->push_back(meta[w].owner);
      out->push_back(meta[w].sharers);
      out->push_back(meta[w].stamp);
      out->push_back(cache.DebugAge(set, w));
    }
  }
}

struct EndState {
  uint64_t digest = 0;
  // Per core: now, icount, every CoreStats field, the loaded-word fold.
  std::vector<uint64_t> cores;
  std::vector<uint64_t> caches;  // each L1, then the LLC
  std::vector<uint8_t> memory;
  std::vector<TraceRecord> trace;
};

static_assert(sizeof(CoreStats) % sizeof(uint64_t) == 0,
              "CoreStats is compared as a uint64_t array");

EndState RunProgram(const MachineConfig& config, uint64_t quantum,
             const Program& program, bool word_runs, bool traced) {
  Machine machine(config);
  const SimAddr buffer = machine.Alloc(kBufferBytes, Region::kTarget, 4096);
  const uint32_t cores = static_cast<uint32_t>(program.size());
  RecordingSink sink;
  if (traced) {
    machine.SetTraceSink(&sink);
  }
  std::vector<uint64_t> loaded(cores, 0);
  SchedulerConfig sched;
  sched.quantum = quantum;
  RunParallel(
      machine, cores,
      [&](Core& core, uint32_t c) {
        for (const Op& op : program[c]) {
          Apply(core, buffer, op, word_runs, &loaded[c]);
        }
      },
      sched);
  if (traced) {
    machine.SetTraceSink(nullptr);
  }
  EndState s;
  s.digest = DigestMachine(machine, cores);
  for (uint32_t c = 0; c < cores; ++c) {
    Core& core = machine.core(c);
    s.cores.push_back(core.now());
    s.cores.push_back(core.icount());
    uint64_t stats[sizeof(CoreStats) / sizeof(uint64_t)];
    std::memcpy(stats, &core.stats(), sizeof(CoreStats));
    s.cores.insert(s.cores.end(), std::begin(stats), std::end(stats));
    s.cores.push_back(loaded[c]);
    AppendCache(core.l1(), &s.caches);
  }
  AppendCache(machine.llc(), &s.caches);
  const uint8_t* mem = machine.HostPtr(buffer);
  s.memory.assign(mem, mem + kBufferBytes);
  s.trace = std::move(sink.records);
  return s;
}

bool operator==(const TraceRecord& a, const TraceRecord& b) {
  return a.kind == b.kind && a.core_id == b.core_id && a.size == b.size &&
         a.addr == b.addr && a.icount == b.icount && a.func_id == b.func_id &&
         a.chain_id == b.chain_id;
}

// Index of the first difference, or -1.
template <typename T>
long FirstDiff(const std::vector<T>& a, const std::vector<T>& b) {
  const size_t common = std::min(a.size(), b.size());
  for (size_t i = 0; i < common; ++i) {
    if (!(a[i] == b[i])) {
      return static_cast<long>(i);
    }
  }
  return a.size() == b.size() ? -1 : static_cast<long>(common);
}

struct EquivCase {
  const char* machine;
  ReplacementPolicy l1_policy;
  uint32_t cores;
};

void PrintTo(const EquivCase& c, std::ostream* os) {
  *os << c.machine << "/" << static_cast<int>(c.l1_policy) << "/" << c.cores;
}

class WordRunEquiv : public ::testing::TestWithParam<EquivCase> {};

TEST_P(WordRunEquiv, MatchesSingleWordOps) {
  const EquivCase& c = GetParam();
  MachineConfig config = std::string(c.machine) == "A"
                             ? MachineA(c.cores)
                             : MachineBFast(c.cores);
  config.l1.policy = c.l1_policy;
  const uint64_t seed = 1000 * c.cores +
                        10 * static_cast<uint64_t>(c.l1_policy) +
                        (std::string(c.machine) == "A" ? 1 : 2);
  const Program program = MakeProgram(seed, c.cores);
  for (uint64_t quantum : {1, 7, 64, 1500, 20000}) {
    for (bool traced : {false, true}) {
      SCOPED_TRACE("quantum " + std::to_string(quantum) +
                   (traced ? ", traced" : ""));
      const EndState words =
          RunProgram(config, quantum, program, false, traced);
      const EndState runs =
          RunProgram(config, quantum, program, true, traced);
      EXPECT_EQ(runs.digest, words.digest);
      EXPECT_EQ(FirstDiff(runs.cores, words.cores), -1);
      EXPECT_EQ(FirstDiff(runs.caches, words.caches), -1);
      EXPECT_EQ(FirstDiff(runs.memory, words.memory), -1);
      EXPECT_EQ(runs.trace.size(), words.trace.size());
      EXPECT_EQ(FirstDiff(runs.trace, words.trace), -1);
      EXPECT_EQ(words.trace.empty(), !traced);
    }
  }
}

std::vector<EquivCase> AllCases() {
  std::vector<EquivCase> cases;
  for (const char* machine : {"A", "BFast"}) {
    for (ReplacementPolicy policy :
         {ReplacementPolicy::kLru, ReplacementPolicy::kTreePlru,
          ReplacementPolicy::kQuadAge, ReplacementPolicy::kFifo,
          ReplacementPolicy::kRandom}) {
      for (uint32_t cores : {1u, 2u, 4u}) {
        cases.push_back({machine, policy, cores});
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<EquivCase>& info) {
  static const char* const kPolicy[] = {"Lru", "TreePlru", "Random",
                                        "Fifo", "QuadAge"};
  return std::string(info.param.machine) +
         kPolicy[static_cast<int>(info.param.l1_policy)] +
         std::to_string(info.param.cores) + "Cores";
}

INSTANTIATE_TEST_SUITE_P(AllMachines, WordRunEquiv,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace prestore
