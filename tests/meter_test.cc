// BandwidthMeter: the backlog-based reservation primitive every shared
// device stands on. Its contract — skew tolerance, work conservation,
// correct pacing — is what keeps multi-core simulations honest.
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/device.h"
#include "src/util/fastdiv.h"
#include "src/util/rng.h"

namespace prestore {
namespace {

TEST(Meter, NoDelayUnderCapacity) {
  BandwidthMeter meter;
  uint64_t now = 10000;
  for (int i = 0; i < 100; ++i) {
    // 10 cycles of work every 100 cycles: 10% duty, never queues.
    EXPECT_EQ(meter.Reserve(10, now), 0u) << i;
    now += 100;
  }
}

TEST(Meter, PacesSustainedOverload) {
  BandwidthMeter meter;
  uint64_t now = 10000;
  uint64_t total_delay = 0;
  // 200 cycles of work every 100 cycles: 2x overload. Total queueing must
  // grow linearly (the requester would be paced to the device rate).
  for (int i = 0; i < 100; ++i) {
    total_delay = meter.Reserve(200, now);
    now += 100;
  }
  // After 100 requests the backlog is ~100 * (200 - 100) = 10000 cycles.
  EXPECT_GT(total_delay, 8000u);
  EXPECT_LT(total_delay, 12000u);
}

TEST(Meter, IdleCreditIsForgotten) {
  BandwidthMeter meter;
  meter.Reserve(10, 1000);
  // A long idle period must not bank capacity for a later burst beyond the
  // window: after the gap, a burst still queues.
  uint64_t delay = 0;
  for (int i = 0; i < 100; ++i) {
    delay = meter.Reserve(100, 1000000);  // 10000 cycles of work at once
  }
  EXPECT_GT(delay, 8000u);
}

TEST(Meter, ClockSkewDoesNotCreatePhantomQueueing) {
  // The core property: a requester far ahead in time must not delay one
  // behind it (within the window) when the device is keeping up.
  BandwidthMeter meter;
  meter.Reserve(5, 100000);  // "leader" core, tiny work
  // The "laggard" 1000 cycles behind may at most queue behind the leader's
  // 5 cycles of real work — never behind its clock.
  EXPECT_LE(meter.Reserve(5, 99000), 5u);
}

TEST(Meter, BacklogObservation) {
  BandwidthMeter meter;
  EXPECT_EQ(meter.BacklogAt(1000), 0u);
  meter.Reserve(5000, 1000);
  EXPECT_GT(meter.BacklogAt(1000), 3000u);
  // Much later the backlog has drained.
  EXPECT_EQ(meter.BacklogAt(100000), 0u);
}

TEST(Meter, InterleavedReservationsConserveWork) {
  // Work conservation across requesters with skewed clocks: four
  // requesters, interleaved round-robin, each demanding 5 cycles of work
  // per cycle. Total delay across requesters must be at least (total work -
  // elapsed capacity), never wildly more.
  BandwidthMeter meter;
  constexpr int kRequesters = 4;
  constexpr int kPerRequester = 1000;
  constexpr uint64_t kCost = 50;
  std::vector<uint64_t> delays(kRequesters, 0);
  std::vector<uint64_t> now(kRequesters);
  for (int r = 0; r < kRequesters; ++r) {
    now[r] = 50000 + r * 100;
  }
  for (int i = 0; i < kPerRequester; ++i) {
    for (int r = 0; r < kRequesters; ++r) {
      delays[r] += meter.Reserve(kCost, now[r]);
      now[r] += 10;
    }
  }
  // Total work = 4 * 1000 * 50 = 200000 over ~10000 cycles of time:
  // ~190000 cycles of queueing must have been charged somewhere.
  uint64_t total = 0;
  for (uint64_t d : delays) {
    total += d;
  }
  EXPECT_GT(total, 100000u);
}

TEST(Meter, BacklogRetiresMonotonicallyUnderIdle) {
  // With no new reservations, an advancing observer clock must only ever
  // shrink the backlog (the reference is monotone), and the observed value
  // must never wrap negative (it is a clamped difference).
  BandwidthMeter meter;
  uint64_t now = 10000;
  for (int i = 0; i < 50; ++i) {
    meter.Reserve(500, now);  // pile up ~25000 cycles of work
  }
  uint64_t prev = meter.BacklogAt(now);
  EXPECT_GT(prev, 0u);
  for (int i = 0; i < 200; ++i) {
    now += 250;
    const uint64_t b = meter.BacklogAt(now);
    ASSERT_LE(b, prev) << "backlog grew under idle at step " << i;
    ASSERT_LT(b, uint64_t{1} << 60) << "backlog wrapped at step " << i;
    prev = b;
  }
  EXPECT_EQ(prev, 0u);
}

// ---- Exact strength-reduced modulo (victim-pick fast path) ----

TEST(FastDiv, ModReciprocalExactForAllSmallDivisors) {
  // PickVictim indexes way_mod_[n] for every associativity the configs can
  // express; the closed form must be exact, not approximate, or victim
  // choices (and digests) drift. Exhaustive small remainders plus random
  // 64-bit values for every divisor up to 64.
  Xoshiro256 rng(0xfa57d1ULL);
  for (uint64_t n = 1; n <= 64; ++n) {
    const ModReciprocal mod(n);
    for (uint64_t r = 0; r < 4 * n + 16; ++r) {
      ASSERT_EQ(mod.Mod(r), r % n) << "n=" << n << " r=" << r;
    }
    for (int i = 0; i < 4096; ++i) {
      const uint64_t r = rng.Next();
      ASSERT_EQ(mod.Mod(r), r % n) << "n=" << n << " r=" << r;
    }
  }
}

// ---- PMEM DIMM-level behaviour ----

DeviceConfig DimmPmem() {
  DeviceConfig c;
  c.kind = DeviceKind::kPmem;
  c.read_latency = 170;
  c.write_latency = 90;
  c.cycles_per_byte = 0.01;
  c.internal_block_size = 256;
  c.internal_buffer_blocks = 8;
  c.interleave_dimms = 8;
  c.interleave_bytes = 4096;
  c.media_cycles_per_byte = 0.45;
  return c;
}

TEST(PmemDimms, SequentialStreamStaysInOneModule) {
  PmemDevice d(DimmPmem());
  // A 4KB sequential write stream fills one interleave unit: it coalesces
  // into 16 blocks, amp 1.0.
  for (uint64_t off = 0; off < 4096; off += 64) {
    d.Write(off, 64, 0);
  }
  d.Drain();
  EXPECT_DOUBLE_EQ(d.Stats().WriteAmplification(), 1.0);
}

TEST(PmemDimms, ManyInterleavedStreamsStillCoalesce) {
  PmemDevice d(DimmPmem());
  // 8 concurrent sequential streams, one per interleave unit: each lands in
  // its own module's buffer.
  for (uint64_t line = 0; line < 64; ++line) {
    for (uint64_t stream = 0; stream < 8; ++stream) {
      d.Write(stream * 4096 + line * 64, 64, 0);
    }
  }
  d.Drain();
  EXPECT_DOUBLE_EQ(d.Stats().WriteAmplification(), 1.0);
}

TEST(PmemDimms, ScatterThrashesEveryModule) {
  PmemDevice d(DimmPmem());
  // Block-strided writes thrash the per-module buffers: full amplification.
  for (uint64_t i = 0; i < 4096; ++i) {
    d.Write(i * 256 * 7, 64, 0);  // ×7: avoid perfect dimm rotation
  }
  d.Drain();
  EXPECT_GT(d.Stats().WriteAmplification(), 3.5);
}

TEST(PmemDimms, ReadsOfBufferedBlocksAreFree) {
  PmemDevice d(DimmPmem());
  d.Write(0, 64, 0);
  const uint64_t t0 = 100000;
  // The block is buffered: the read pays latency + interface only. A read
  // of a distant cold block pays the media fetch as well (its delay only
  // materializes under backlog, so compare media work via a saturated
  // pattern instead: just check both complete).
  EXPECT_GE(d.Read(64, 64, t0), t0 + d.config().read_latency);
}

TEST(PmemDimms, ReadAmplificationCharged) {
  // Scattered cold reads fetch whole internal blocks: the media meter backs
  // up even though no writes happen.
  DeviceConfig cfg = DimmPmem();
  cfg.media_cycles_per_byte = 4.0;  // slow media to surface the backlog
  PmemDevice d(cfg);
  uint64_t now = 10000;
  uint64_t last = 0;
  for (uint64_t i = 0; i < 2000; ++i) {
    last = d.Read(i * 256 * 7, 64, now);
  }
  // With ~341 cycles of media work per fetch all issued at once, the last
  // read completes far in the future.
  EXPECT_GT(last, now + 100000u);
}

// Randomized traffic that mixes sequential runs, scatter, bursts, and idle
// gaps, folded into one FNV-1a digest: every op's completion time, every
// backlog probe, and the final DeviceStats after Drain.
uint64_t RandomTrafficDigest(uint32_t buffer_blocks) {
  DeviceConfig cfg = DimmPmem();
  cfg.media_cycles_per_byte = 1.5;  // slow media so backlog actually forms
  cfg.internal_buffer_blocks = buffer_blocks;
  PmemDevice d(cfg);
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= v & 0xff;
      h *= 0x100000001b3ULL;
      v >>= 8;
    }
  };
  Xoshiro256 rng(0xdeefULL);
  uint64_t now = 5000;
  uint64_t seq_addr = 0;
  for (int op = 0; op < 20000; ++op) {
    switch (rng.Below(8)) {
      case 0:  // idle gap, then backlog probe
        now += rng.Below(4 * BandwidthMeter::kWindow);
        mix(d.InternalBacklogAt(now));
        break;
      case 1:
      case 2: {  // sequential write run (coalesces in the block buffers)
        const uint32_t lines = 1 + rng.Below(16);
        for (uint32_t i = 0; i < lines; ++i) {
          mix(d.Write(seq_addr, 64, now));
          seq_addr += 64;
        }
        break;
      }
      case 3: {  // scattered write (thrashes the buffers)
        const uint64_t addr = rng.Below(1 << 22) * 64;
        mix(d.Write(addr, 64, now));
        break;
      }
      default: {  // read, scattered or near the sequential cursor
        const uint64_t addr = rng.Below(2) != 0
                                  ? rng.Below(1 << 22) * 64
                                  : seq_addr - 64 * rng.Below(8);
        mix(d.Read(addr, 64, now));
        break;
      }
    }
    now += rng.Below(64);
  }
  d.Drain();
  const DeviceStats s = d.Stats();
  mix(s.reads);
  mix(s.writes);
  mix(s.bytes_read);
  mix(s.bytes_received);
  mix(s.media_bytes_written);
  return h;
}

TEST(PmemDimms, RandomTrafficMatchesRecordedDigests) {
  // The bit-identical contract at the device boundary. The digests were
  // recorded when an indexed fast path and a plain reference model both
  // existed and agreed on each; buffer sizes past 255 blocks cover slot
  // counts wider than a byte.
  EXPECT_EQ(RandomTrafficDigest(8), 0x6970ec47bbf07a56ULL);
  EXPECT_EQ(RandomTrafficDigest(256), 0xdc08c3b1d8e115b6ULL);
  EXPECT_EQ(RandomTrafficDigest(1024), 0x526947a32c9901cdULL);
}

TEST(PmemDimms, PartialBlockFlushPaysRmwFetch) {
  // Two devices, same write count: full-block sequential stream vs one
  // line per block. The partial flushes must cost more media time.
  DeviceConfig cfg = DimmPmem();
  cfg.media_cycles_per_byte = 2.0;
  PmemDevice seq(cfg);
  PmemDevice scatter(cfg);
  uint64_t seq_last = 0;
  uint64_t scatter_last = 0;
  for (uint64_t i = 0; i < 4096; ++i) {
    seq_last = std::max(seq_last, seq.Write(i * 64, 64, 0));
    scatter_last =
        std::max(scatter_last, scatter.Write(i * 256 * 7, 64, 0));
  }
  EXPECT_GT(scatter_last, seq_last);
}

}  // namespace
}  // namespace prestore
