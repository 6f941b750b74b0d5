// Summary statistics and span tracing for the reproduction benchmark.
//
// The quantile rules match Python's statistics.median and
// statistics.quantiles(values, n=4) (the default "exclusive" method), so the
// spreads the benchmark prints are the ones Python computes from the same
// values.
#ifndef PERFBENCH_PERFBENCH_STATS_H_
#define PERFBENCH_PERFBENCH_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Middle value, or the mean of the two middle values; 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
  // Distance between the first and third quartile as a share of the
  // median (0 when the median is 0).
  double RelativeSpread() const { return q2 == 0.0 ? 0.0 : (q3 - q1) / q2; }
};

// statistics.quantiles(v, n=4, method="exclusive"). Needs at least one
// value; a single value is every quartile.
inline Quartiles QuartilesOf(std::vector<double> v) {
  if (v.empty()) {
    throw std::invalid_argument("QuartilesOf: no values");
  }
  std::sort(v.begin(), v.end());
  const int64_t ld = static_cast<int64_t>(v.size());
  if (ld == 1) {
    return {v[0], v[0], v[0]};
  }
  double q[3];
  const int64_t m = ld + 1;
  for (int64_t i = 1; i <= 3; ++i) {
    int64_t j = i * m / 4;
    j = std::clamp<int64_t>(j, 1, ld - 1);
    const int64_t delta = i * m - j * 4;
    q[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

struct TailPercentile {
  double percentile = 0.0;  // e.g. 90 for p90
  double value = 0.0;
  size_t beyond = 0;  // samples strictly after it in rank order
};

// Samples a reported percentile needs beyond it, so a tail figure never
// rests on a handful of samples.
constexpr size_t kMinSamplesBeyond = 10;

// The highest of p50/p90/p99/p99.9/p99.99 (nearest rank) that still has at
// least kMinSamplesBeyond samples beyond it. Empty when even the median has
// too few behind it.
inline std::optional<TailPercentile> HighestSupportedPercentile(
    std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  std::optional<TailPercentile> best;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    // Nearest rank: the ceil(p/100 * n)-th smallest sample. Integer
    // arithmetic in units of 0.01% keeps the rank exact.
    const auto p100 = static_cast<uint64_t>(std::llround(p * 100.0));
    const uint64_t rank = (p100 * n + 9999) / 10000;
    if (rank == 0 || rank > n || n - rank < kMinSamplesBeyond) {
      break;
    }
    best = TailPercentile{p, v[rank - 1], n - rank};
  }
  return best;
}

// In-memory span recorder. Spans nest through an explicit stack: a span's
// parent is whichever span was open when it began. Disabled tracers record
// nothing, so an untraced run pays one branch per boundary.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string config;  // "" for spans outside a per-config phase
    int64_t start_ns = 0;
    int64_t end_ns = -1;  // -1 while open
    int parent = -1;
    int64_t children_ns = 0;  // summed durations of its direct children
  };

  Tracer(bool enabled, std::string workload)
      : enabled_(enabled), workload_(std::move(workload)) {}

  const std::vector<Span>& spans() const { return spans_; }

  int Begin(std::string name, std::string config = "") {
    if (!enabled_) {
      return -1;
    }
    const auto t0 = Clock::now();
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(
        Span{std::move(name), std::move(config), NowNs(), -1, parent, 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    overhead_ += Clock::now() - t0;
    return open_.back();
  }

  void End(int id) {
    if (!enabled_) {
      return;
    }
    const auto t0 = Clock::now();
    if (open_.empty() || open_.back() != id) {
      // Spans open and close through SpanScope, so this is a program bug.
      std::fprintf(stderr, "Tracer::End: span %d is not the innermost\n", id);
      std::abort();
    }
    Span& s = spans_[id];
    s.end_ns = NowNs();
    if (s.parent >= 0) {
      spans_[s.parent].children_ns += s.end_ns - s.start_ns;
    }
    open_.pop_back();
    overhead_ += Clock::now() - t0;
  }

  // Span duration minus the durations of its direct children. End only
  // closes the innermost open span, so children are sequential and lie
  // inside their parent.
  double SelfSeconds(int id) const {
    const Span& s = spans_.at(id);
    return static_cast<double>(s.end_ns - s.start_ns - s.children_ns) * 1e-9;
  }

  // Host seconds spent inside Begin/End and WriteChromeJson.
  double OverheadSeconds() const { return overhead_.count(); }

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps);
  // loads in chrome://tracing and Perfetto. Returns false on an I/O error.
  bool WriteChromeJson(const std::string& path, const std::string& context) {
    const auto t0 = Clock::now();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
                    "\"traceEvents\":[",
                 context.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(
          f,
          "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
          "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
          "\"parent\":%d,\"workload\":\"%s\",\"config\":\"%s\","
          "\"self_us\":%.3f}}",
          i == 0 ? "" : ",", s.name.c_str(), workload_.c_str(),
          static_cast<double>(s.start_ns) * 1e-3,
          static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i, s.parent,
          workload_.c_str(), s.config.c_str(),
          SelfSeconds(static_cast<int>(i)) * 1e6);
    }
    std::fprintf(f, "\n]}\n");
    const bool ok = std::fclose(f) == 0;
    overhead_ += Clock::now() - t0;
    return ok;
  }

 private:
  using Clock = std::chrono::steady_clock;

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  std::string workload_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::chrono::duration<double> overhead_{0.0};
};

// RAII span: Begin on construction, End on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, std::string config = "")
      : tracer_(tracer), id_(tracer.Begin(std::move(name), std::move(config))) {}
  ~SpanScope() { tracer_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_STATS_H_
