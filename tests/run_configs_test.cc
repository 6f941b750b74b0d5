// The bench-side configuration runner (bench/run_configs.h): index-ordered
// results, lowest-index exception after every call has finished, and one
// host thread per CPU of the affinity mask.
#include "bench/run_configs.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace prestore {
namespace {

size_t MaskCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return static_cast<size_t>(CPU_COUNT(&set));
}

TEST(RunConfigs, ResultsComeBackInIndexOrder) {
  // Early calls take longest, so calls finish out of index order.
  const auto out = RunConfigs(40, [](size_t i) {
    std::this_thread::sleep_for(std::chrono::microseconds((40 - i) * 50));
    return "config " + std::to_string(i);
  });
  ASSERT_EQ(out.size(), 40u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], "config " + std::to_string(i));
  }
  EXPECT_TRUE(RunConfigs(0, [](size_t i) { return i; }).empty());
}

TEST(RunConfigs, RethrowsLowestIndexAfterEveryCallFinishes) {
  std::atomic<int> finished{0};
  try {
    RunConfigs(16, [&](size_t i) -> int {
      if (i == 5 || i == 9 || i == 12) {
        throw std::runtime_error("call " + std::to_string(i));
      }
      if (i == 15) {
        // The slowest call: a rethrow that did not wait would miss it.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      ++finished;
      return static_cast<int>(i);
    });
    FAIL() << "expected the exception of call 5";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "call 5");
    EXPECT_EQ(finished.load(), 13);
  }
}

TEST(RunConfigs, RunsOneThreadPerAffinityCpu) {
  const size_t cpus = MaskCpus();
  ASSERT_GE(cpus, 1u);
  EXPECT_EQ(AffinityCpus(), cpus);

  // `cpus` calls meet at a rendezvous that opens only once all of them are
  // in flight, so they must run on `cpus` distinct threads at once.
  std::mutex mu;
  std::condition_variable cv;
  size_t arrived = 0;
  std::set<std::thread::id> ids;
  const auto met = RunConfigs(cpus, [&](size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
    ++arrived;
    cv.notify_all();
    return cv.wait_for(lock, std::chrono::seconds(30),
                       [&] { return arrived == cpus; });
  });
  for (const bool ok : met) {
    EXPECT_TRUE(ok);
  }
  EXPECT_EQ(ids.size(), cpus);

  // With more calls than CPUs, no more than `cpus` threads take part.
  ids.clear();
  RunConfigs(cpus * 8, [&](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
    return 0;
  });
  EXPECT_LE(ids.size(), cpus);
  EXPECT_GE(ids.size(), 1u);
}

}  // namespace
}  // namespace prestore
