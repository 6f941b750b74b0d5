// Runs a bench's independent configurations side by side on host threads.
#ifndef BENCH_RUN_CONFIGS_H_
#define BENCH_RUN_CONFIGS_H_

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <optional>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace prestore {

// CPUs in the process's affinity mask (at least 1), the number of host
// threads RunConfigs keeps busy: under `taskset -c 0` every configuration
// runs on the calling thread, one after another.
inline size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
}

// Calls fn(0) .. fn(n - 1) on min(n, AffinityCpus()) host threads, the
// calling thread included, and returns the results in index order. Each
// call must build everything it simulates (its Machine, its scheduler) and
// share nothing mutable with the others; an engine is single-threaded and
// owns no global state (DESIGN.md §12), so every result is the one a
// sequential loop would compute, and a bench that prints them afterwards
// prints the same bytes on any host. If calls throw, the rest still run to
// completion; then the lowest index's exception is rethrown.
template <typename Fn>
auto RunConfigs(size_t n, const Fn& fn)
    -> std::vector<std::invoke_result_t<const Fn&, size_t>> {
  using Result = std::invoke_result_t<const Fn&, size_t>;
  std::vector<std::optional<Result>> results(n);
  std::vector<std::exception_ptr> errors(n);
  std::atomic<size_t> next{0};
  const auto work = [&] {
    for (size_t i = next++; i < n; i = next++) {
      try {
        results[i].emplace(fn(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const size_t threads = std::min(n, AffinityCpus());
  std::vector<std::thread> helpers;
  helpers.reserve(threads);  // no reallocation once a thread is running
  for (size_t t = 1; t < threads; ++t) {
    try {
      helpers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // run on the threads already started
    }
  }
  work();
  for (std::thread& helper : helpers) {
    helper.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  std::vector<Result> out;
  out.reserve(n);
  for (std::optional<Result>& result : results) {
    out.push_back(std::move(*result));
  }
  return out;
}

}  // namespace prestore

#endif  // BENCH_RUN_CONFIGS_H_
