#include "src/hw/hw_prestore.h"

#include <cstring>

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#include <emmintrin.h>
#define PRESTORE_X86 1
#elif defined(__aarch64__)
#define PRESTORE_ARM 1
#endif

namespace prestore {
namespace {

HwFeatures Detect() {
  HwFeatures f;
#if defined(PRESTORE_X86)
  unsigned int eax = 0;
  unsigned int ebx = 0;
  unsigned int ecx = 0;
  unsigned int edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.has_clflushopt = (ebx & (1u << 23)) != 0;
    f.has_clwb = (ebx & (1u << 24)) != 0;
    f.has_cldemote = (ecx & (1u << 25)) != 0;
  }
  f.has_nt_stores = true;  // SSE2 is part of the x86-64 baseline.
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    // CLFLUSH line size is reported in 8-byte units in EBX[15:8].
    const uint32_t clflush_units = (ebx >> 8) & 0xff;
    if (clflush_units != 0) {
      f.cache_line_size = clflush_units * 8;
    }
  }
#elif defined(PRESTORE_ARM)
  // DC CVAC / CVAU are architecturally available at EL0 (SCTLR_EL1.UCI is set
  // by every mainstream OS). CTR_EL0 gives the data-cache line size.
  f.has_clwb = true;       // dc cvac
  f.has_cldemote = true;   // dc cvau
  f.has_nt_stores = true;  // stnp
  uint64_t ctr = 0;
  asm volatile("mrs %0, ctr_el0" : "=r"(ctr));
  const uint64_t dminline_log2 = (ctr >> 16) & 0xf;
  f.cache_line_size = 4u << dminline_log2;
#endif
  return f;
}

#if defined(PRESTORE_X86)

inline void X86Cldemote(const void* p) {
  // Encoded directly so the binary runs on toolchains without -mcldemote.
  // On CPUs without CLDEMOTE the opcode executes as a NOP (it occupies a
  // NOP hint space), which is exactly the degrade-gracefully behaviour the
  // instruction was designed for.
  asm volatile(".byte 0x0f, 0x1c, 0x07" ::"D"(p) : "memory");
}

inline void X86Clwb(const void* p) {
  asm volatile(".byte 0x66, 0x0f, 0xae, 0x37" ::"D"(p) : "memory");
}

inline void X86Clflushopt(const void* p) {
  asm volatile(".byte 0x66, 0x0f, 0xae, 0x3f" ::"D"(p) : "memory");
}

#elif defined(PRESTORE_ARM)

inline void ArmDcCvau(const void* p) {
  asm volatile("dc cvau, %0" ::"r"(p) : "memory");
}

inline void ArmDcCvac(const void* p) {
  asm volatile("dc cvac, %0" ::"r"(p) : "memory");
}

#endif

}  // namespace

const HwFeatures& DetectHwFeatures() {
  static const HwFeatures features = Detect();
  return features;
}

namespace {

// Dispatches one selected instruction. The selection itself is the pure
// SelectPrestoreInstr in the header; only the encodings live here.
inline void IssueInstr(HwInstr instr, const void* p) {
  switch (instr) {
#if defined(PRESTORE_X86)
    case HwInstr::kCldemote:
      X86Cldemote(p);
      break;
    case HwInstr::kClwb:
      X86Clwb(p);
      break;
    case HwInstr::kClflushopt:
      X86Clflushopt(p);
      break;
#elif defined(PRESTORE_ARM)
    case HwInstr::kDcCvau:
      ArmDcCvau(p);
      break;
    case HwInstr::kDcCvac:
      ArmDcCvac(p);
      break;
#endif
    default:
      (void)p;
      break;
  }
}

}  // namespace

void HwPrestore(const void* location, size_t size, PrestoreOp op) {
  if (size == 0) {
    return;
  }
  const HwFeatures& f = DetectHwFeatures();
  const HwInstr instr = SelectPrestoreInstr(HostArch(), f, op);
  if (instr == HwInstr::kNone) {
    return;
  }
  const uint64_t line = f.cache_line_size;
  const auto addr = reinterpret_cast<uint64_t>(location);
  const uint64_t first = LineBase(addr, line);
  const uint64_t last = LineBase(addr + size - 1, line);
  for (uint64_t a = first; a <= last; a += line) {
    IssueInstr(instr, reinterpret_cast<const void*>(a));
  }
}

void HwStoreFence() {
#if defined(PRESTORE_X86)
  _mm_sfence();
#elif defined(PRESTORE_ARM)
  asm volatile("dmb ish" ::: "memory");
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
#endif
}

void HwStoreNonTemporal(void* dst, const void* src, size_t size) {
#if defined(PRESTORE_X86)
  auto* d = static_cast<char*>(dst);
  const auto* s = static_cast<const char*>(src);
  // Head/tail that are not 8-byte multiples go through regular stores.
  while (size >= 8 && (reinterpret_cast<uint64_t>(d) & 7) == 0) {
    long long v;  // NOLINT(runtime/int): _mm_stream_si64 takes long long.
    std::memcpy(&v, s, 8);
    _mm_stream_si64(reinterpret_cast<long long*>(d), v);
    d += 8;
    s += 8;
    size -= 8;
  }
  if (size > 0) {
    std::memcpy(d, s, size);
  }
#elif defined(PRESTORE_ARM)
  auto* d = static_cast<char*>(dst);
  const auto* s = static_cast<const char*>(src);
  while (size >= 16 && (reinterpret_cast<uint64_t>(d) & 15) == 0) {
    uint64_t lo;
    uint64_t hi;
    std::memcpy(&lo, s, 8);
    std::memcpy(&hi, s + 8, 8);
    asm volatile("stnp %0, %1, [%2]" ::"r"(lo), "r"(hi), "r"(d) : "memory");
    d += 16;
    s += 16;
    size -= 16;
  }
  if (size > 0) {
    std::memcpy(d, s, size);
  }
#else
  std::memcpy(dst, src, size);
#endif
}

GovernedHwPrestore::GovernedHwPrestore(GovernorConfig config,
                                       bool target_has_wa_headroom)
    : config_(config),
      has_headroom_(target_has_wa_headroom),
      line_size_(DetectHwFeatures().cache_line_size) {}

void GovernedHwPrestore::NoteCleanedLine(uint64_t line_addr) {
  for (size_t i = 0; i < kRecentCleans; ++i) {
    if (recent_clean_[i] == line_addr) {
      return;
    }
  }
  recent_clean_[next_clean_] = line_addr;
  next_clean_ = (next_clean_ + 1) % kRecentCleans;
}

size_t GovernedHwPrestore::Prestore(const void* location, size_t size,
                                    PrestoreOp op) {
  if (size == 0) {
    return 0;
  }
  const auto addr = reinterpret_cast<uint64_t>(location);
  const uint64_t first = LineBase(addr, line_size_);
  const uint64_t last = LineBase(addr + size - 1, line_size_);
  size_t issued = 0;
  for (uint64_t a = first; a <= last; a += line_size_) {
    ++attempts_;
    // Global useless-overhead gate (same hysteresis band as the simulator
    // governor, evaluated over the caller-reported fence rate).
    const uint64_t window_attempts = attempts_ - gate_last_attempts_;
    if (window_attempts >= config_.global_eval_window) {
      const double fence_rate =
          static_cast<double>(fences_ - gate_last_fences_) / window_attempts;
      if (!gate_closed_ && fence_rate < kFenceRateLow) {
        gate_closed_ = true;
      } else if (gate_closed_ && fence_rate > kFenceRateHigh) {
        gate_closed_ = false;
      }
      gate_last_attempts_ = attempts_;
      gate_last_fences_ = fences_;
    }
    if (gate_closed_ && !has_headroom_) {
      ++suppressed_;
      continue;
    }
    RegionBackoff& region = regions_[a >> kRegionShift];
    if (!region.OnHint(config_, config_.backoff_rewrite_rate)) {
      ++suppressed_;
      continue;
    }
    HwPrestore(reinterpret_cast<const void*>(a), 1, op);
    if (op == PrestoreOp::kClean) {
      NoteCleanedLine(a);
    }
    ++admitted_;
    ++issued;
  }
  return issued;
}

void GovernedHwPrestore::NoteStore(const void* location, size_t size) {
  if (size == 0) {
    return;
  }
  const auto addr = reinterpret_cast<uint64_t>(location);
  const uint64_t first = LineBase(addr, line_size_);
  const uint64_t last = LineBase(addr + size - 1, line_size_);
  for (uint64_t a = first; a <= last; a += line_size_) {
    for (size_t i = 0; i < kRecentCleans; ++i) {
      if (recent_clean_[i] == a) {
        recent_clean_[i] = 0;
        regions_[a >> kRegionShift].OnRewrite();
        break;
      }
    }
  }
}

void GovernedHwPrestore::NoteFence() {
  ++fences_;
  HwStoreFence();
}

}  // namespace prestore
