// The hardware backend must be safe on whatever CPU runs the test suite:
// detection must not crash, and every op must degrade gracefully.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "src/hw/hw_prestore.h"

namespace prestore {
namespace {

TEST(HwDetect, ReportsPlausibleLineSize) {
  const HwFeatures& f = DetectHwFeatures();
  EXPECT_GE(f.cache_line_size, 32u);
  EXPECT_LE(f.cache_line_size, 256u);
  // Power of two.
  EXPECT_EQ(f.cache_line_size & (f.cache_line_size - 1), 0u);
}

TEST(HwDetect, StableAcrossCalls) {
  const HwFeatures& a = DetectHwFeatures();
  const HwFeatures& b = DetectHwFeatures();
  EXPECT_EQ(&a, &b);
}

TEST(HwDetect, RaceFreeUnderConcurrentFirstUse) {
  // Detection is a function-local static: concurrent callers must all get
  // the same fully initialized object. (Hammering it here cannot prove the
  // absence of a race, but it documents and smoke-tests the guarantee.)
  constexpr int kThreads = 8;
  const HwFeatures* seen[kThreads] = {};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&seen, i] { seen[i] = &DetectHwFeatures(); });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[i], seen[0]);
  }
  EXPECT_EQ(seen[0]->cache_line_size, DetectHwFeatures().cache_line_size);
}

// The §2 degrade-gracefully chain, exercised for every feature combination
// regardless of what the host CPU actually supports.
TEST(HwSelect, CleanFallbackChainOnX86) {
  HwFeatures f;
  f.has_clwb = true;
  f.has_clflushopt = true;
  EXPECT_EQ(SelectPrestoreInstr(HwArch::kX86_64, f, PrestoreOp::kClean),
            HwInstr::kClwb);
  f.has_clwb = false;  // pre-CLWB CPU: fall back to clflushopt
  EXPECT_EQ(SelectPrestoreInstr(HwArch::kX86_64, f, PrestoreOp::kClean),
            HwInstr::kClflushopt);
  f.has_clflushopt = false;  // neither: degrade to a no-op
  EXPECT_EQ(SelectPrestoreInstr(HwArch::kX86_64, f, PrestoreOp::kClean),
            HwInstr::kNone);
}

TEST(HwSelect, DemoteIsAlwaysEncodedOnX86) {
  // cldemote occupies NOP space, so it is issued even when CPUID says the
  // CPU does not implement it.
  HwFeatures f;
  f.has_cldemote = false;
  EXPECT_EQ(SelectPrestoreInstr(HwArch::kX86_64, f, PrestoreOp::kDemote),
            HwInstr::kCldemote);
  f.has_cldemote = true;
  EXPECT_EQ(SelectPrestoreInstr(HwArch::kX86_64, f, PrestoreOp::kDemote),
            HwInstr::kCldemote);
}

TEST(HwSelect, ArmUsesDcInstructions) {
  const HwFeatures f;  // ARM needs no feature bits: DC ops are baseline
  EXPECT_EQ(SelectPrestoreInstr(HwArch::kAArch64, f, PrestoreOp::kClean),
            HwInstr::kDcCvac);
  EXPECT_EQ(SelectPrestoreInstr(HwArch::kAArch64, f, PrestoreOp::kDemote),
            HwInstr::kDcCvau);
}

TEST(HwSelect, UnknownArchDegradesToNoop) {
  HwFeatures f;
  f.has_clwb = true;
  f.has_cldemote = true;
  EXPECT_EQ(SelectPrestoreInstr(HwArch::kOther, f, PrestoreOp::kClean),
            HwInstr::kNone);
  EXPECT_EQ(SelectPrestoreInstr(HwArch::kOther, f, PrestoreOp::kDemote),
            HwInstr::kNone);
}

TEST(HwSelect, HostSelectionMatchesDetectedFeatures) {
  const HwFeatures& f = DetectHwFeatures();
  const HwInstr clean = SelectPrestoreInstr(HostArch(), f, PrestoreOp::kClean);
  if (HostArch() == HwArch::kX86_64) {
    if (f.has_clwb) {
      EXPECT_EQ(clean, HwInstr::kClwb);
    } else if (f.has_clflushopt) {
      EXPECT_EQ(clean, HwInstr::kClflushopt);
    } else {
      EXPECT_EQ(clean, HwInstr::kNone);
    }
  }
}

TEST(GovernedHw, BacksOffRewriteStorm) {
  GovernorConfig cfg;
  cfg.window_hints = 8;
  cfg.probe_period = 8;
  cfg.probe_window = 4;
  GovernedHwPrestore gov(cfg);

  alignas(64) char buf[64];
  std::memset(buf, 1, sizeof(buf));
  // Listing-3 pattern: rewrite then clean the same line, repeatedly.
  for (int i = 0; i < 512; ++i) {
    std::memset(buf, i & 0xff, sizeof(buf));
    gov.NoteStore(buf, sizeof(buf));
    gov.Prestore(buf, sizeof(buf), PrestoreOp::kClean);
  }
  EXPECT_EQ(gov.attempts(), 512u);
  // The storm must be mostly suppressed once the first window completes.
  EXPECT_GT(gov.suppressed(), gov.attempts() / 2);
  EXPECT_EQ(gov.admitted() + gov.suppressed(), gov.attempts());
}

TEST(GovernedHw, AdmitsWellBehavedCleans) {
  GovernorConfig cfg;
  cfg.window_hints = 8;
  GovernedHwPrestore gov(cfg);

  // Streaming pattern: each line written once, cleaned once, never
  // rewritten. Line-aligned so consecutive cleans do not overlap (an
  // overlapping clean+store pattern IS a rewrite storm and gets suppressed).
  std::vector<char> storage(64 * 1024 + 64, 3);
  char* buf = storage.data() +
              (64 - reinterpret_cast<uintptr_t>(storage.data()) % 64) % 64;
  for (size_t off = 0; off + 64 <= 64 * 1024; off += 64) {
    gov.NoteStore(buf + off, 64);
    gov.Prestore(buf + off, 64, PrestoreOp::kClean);
  }
  EXPECT_EQ(gov.suppressed(), 0u);
  EXPECT_EQ(gov.admitted(), gov.attempts());
}

TEST(GovernedHw, GateClosesWithoutFencesOnNoHeadroomTarget) {
  GovernorConfig cfg;
  cfg.global_eval_window = 64;
  GovernedHwPrestore gov(cfg, /*target_has_wa_headroom=*/false);

  std::vector<char> buf(64 * 1024, 5);
  for (size_t off = 0; off + 64 <= buf.size(); off += 64) {
    gov.NoteStore(buf.data() + off, 64);
    gov.Prestore(buf.data() + off, 64, PrestoreOp::kClean);
  }
  // Fence-free + no amplification headroom: after the first evaluation
  // window the gate suppresses everything.
  EXPECT_GT(gov.suppressed(), 0u);
  EXPECT_LT(gov.admitted(), gov.attempts());
}

TEST(HwPrestore, CleanDoesNotCorruptData) {
  std::vector<uint64_t> data(1024, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = i * 3 + 1;
  }
  HwPrestore(data.data(), data.size() * 8, PrestoreOp::kClean);
  HwStoreFence();
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i], i * 3 + 1);
  }
}

TEST(HwPrestore, DemoteDoesNotCorruptData) {
  std::vector<uint64_t> data(1024, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = i ^ 0xdeadbeef;
  }
  HwPrestore(data.data(), data.size() * 8, PrestoreOp::kDemote);
  for (size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data[i], i ^ 0xdeadbeef);
  }
}

TEST(HwPrestore, ZeroSizeIsNoop) {
  int x = 42;
  HwPrestore(&x, 0, PrestoreOp::kClean);
  EXPECT_EQ(x, 42);
}

TEST(HwPrestore, UnalignedRangeCoversAllLines) {
  std::vector<char> buf(4096, 7);
  HwPrestore(buf.data() + 13, 1000, PrestoreOp::kClean);
  for (char c : buf) {
    EXPECT_EQ(c, 7);
  }
}

TEST(HwNonTemporal, CopiesExactBytes) {
  alignas(64) char dst[512];
  char src[512];
  for (int i = 0; i < 512; ++i) {
    src[i] = static_cast<char>(i * 7);
    dst[i] = 0;
  }
  HwStoreNonTemporal(dst, src, 512);
  HwStoreFence();
  EXPECT_EQ(std::memcmp(dst, src, 512), 0);
}

TEST(HwNonTemporal, HandlesUnalignedAndOddSizes) {
  alignas(64) char dst[256];
  char src[256];
  for (int i = 0; i < 256; ++i) {
    src[i] = static_cast<char>(255 - i);
    dst[i] = 0;
  }
  HwStoreNonTemporal(dst + 3, src, 131);
  HwStoreFence();
  EXPECT_EQ(std::memcmp(dst + 3, src, 131), 0);
}

}  // namespace
}  // namespace prestore
