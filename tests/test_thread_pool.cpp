#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/env.hpp"
#include "core/obs/metrics.hpp"
#include "core/obs/trace_export.hpp"
#include "core/parallel.hpp"

namespace wheels::core {
namespace {

/// Saves and restores WHEELS_THREADS so these tests cannot leak state into
/// the campaign tests that also honour it.
class ThreadPoolEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* v = std::getenv("WHEELS_THREADS");
    had_value_ = v != nullptr;
    if (had_value_) saved_ = v;
    unsetenv("WHEELS_THREADS");
  }
  void TearDown() override {
    if (had_value_) {
      setenv("WHEELS_THREADS", saved_.c_str(), 1);
    } else {
      unsetenv("WHEELS_THREADS");
    }
  }

 private:
  bool had_value_ = false;
  std::string saved_;
};

TEST_F(ThreadPoolEnv, ExplicitRequestWinsOverEnv) {
  setenv("WHEELS_THREADS", "2", 1);
  EXPECT_EQ(resolve_threads(5), 5);
}

TEST_F(ThreadPoolEnv, ReadsValidEnvValue) {
  setenv("WHEELS_THREADS", "3", 1);
  EXPECT_EQ(resolve_threads(0), 3);
}

TEST_F(ThreadPoolEnv, MalformedEnvFallsBackToAuto) {
  // Under the old atoi parsing, "abc" read as 0 and silently meant auto;
  // now it warns and must still resolve to a usable count.
  for (const char* bad : {"abc", "4x", "", " 3", "3 ", "2.5"}) {
    setenv("WHEELS_THREADS", bad, 1);
    EXPECT_GE(resolve_threads(0), 1) << "value: '" << bad << "'";
  }
}

TEST_F(ThreadPoolEnv, OutOfRangeEnvFallsBackToAuto) {
  for (const char* bad : {"0", "-4", "5000", "99999999999999999999"}) {
    setenv("WHEELS_THREADS", bad, 1);
    EXPECT_GE(resolve_threads(0), 1) << "value: '" << bad << "'";
  }
}

TEST_F(ThreadPoolEnv, EnvIntParsesFullStringOnly) {
  setenv("WHEELS_THREADS", "42", 1);
  const auto v = env_int("WHEELS_THREADS");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);

  setenv("WHEELS_THREADS", "-17", 1);
  ASSERT_TRUE(env_int("WHEELS_THREADS").has_value());
  EXPECT_EQ(*env_int("WHEELS_THREADS"), -17);

  for (const char* bad : {"42x", "x42", "4 2", "", "0x10",
                          "99999999999999999999"}) {
    setenv("WHEELS_THREADS", bad, 1);
    EXPECT_FALSE(env_int("WHEELS_THREADS").has_value())
        << "value: '" << bad << "'";
  }
  unsetenv("WHEELS_THREADS");
  EXPECT_FALSE(env_int("WHEELS_THREADS").has_value());
}

TEST_F(ThreadPoolEnv, EnvDoubleParsesFullStringOnly) {
  setenv("WHEELS_THREADS", "0.25", 1);
  const auto v = env_double("WHEELS_THREADS");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(*v, 0.25);

  setenv("WHEELS_THREADS", "1e-3", 1);
  ASSERT_TRUE(env_double("WHEELS_THREADS").has_value());
  EXPECT_DOUBLE_EQ(*env_double("WHEELS_THREADS"), 1e-3);

  for (const char* bad : {"0.25stuff", "", "one", "1e999"}) {
    setenv("WHEELS_THREADS", bad, 1);
    EXPECT_FALSE(env_double("WHEELS_THREADS").has_value())
        << "value: '" << bad << "'";
  }
}

/// Runs `fn` under parallel_for and returns the distinct trace_thread_id()
/// values the indices ran on.
std::set<int> threads_seen(int threads, std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  std::mutex mu;
  std::set<int> ids;
  parallel_for(threads, n, [&](std::size_t i) {
    fn(i);
    std::lock_guard lk{mu};
    ids.insert(obs::trace_thread_id());
  });
  return ids;
}

TEST_F(ThreadPoolEnv, PoolHonoursResolvedCountUnderEnv) {
  setenv("WHEELS_THREADS", "2", 1);
  EXPECT_EQ(resolve_threads(0), 2);
  std::vector<int> hits(16, 0);
  const std::set<int> ids =
      threads_seen(0, hits.size(), [&hits](std::size_t i) { ++hits[i]; });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), 2u);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t n : {0u, 1u, 3u, 1000u}) {
    for (const int threads : {1, 2, 8}) {
      std::vector<int> hits(n, 0);  // distinct slots: no race
      parallel_for(threads, n, [&hits](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i], 1) << "n " << n << " threads " << threads
                              << " index " << i;
      }
    }
  }
}

TEST(ParallelFor, NestedCallsComplete) {
  std::vector<int> hits(16, 0);
  parallel_for(4, 4, [&hits](std::size_t outer) {
    parallel_for(4, 4, [&hits, outer](std::size_t inner) {
      ++hits[outer * 4 + inner];
    });
  });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, ConcurrentCallersBothComplete) {
  std::vector<int> a(500, 0);
  std::vector<int> b(500, 0);
  std::thread other{
      [&a] { parallel_for(4, a.size(), [&a](std::size_t i) { ++a[i]; }); }};
  parallel_for(4, b.size(), [&b](std::size_t i) { ++b[i]; });
  other.join();
  for (const int h : a) EXPECT_EQ(h, 1);
  for (const int h : b) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, RethrowsLowestThrowingIndexAtEveryWidth) {
  for (const int threads : {1, 2, 4, 8}) {
    try {
      parallel_for(threads, 64, [](std::size_t i) {
        if (i == 41 || i == 7 || i == 63) {
          throw std::runtime_error{std::to_string(i)};
        }
      });
      ADD_FAILURE() << "no exception at threads " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "7") << "threads " << threads;
    }
  }
}

TEST(ParallelFor, ReusesWorkerThreadsAcrossCalls) {
  std::set<int> ids;
  for (int call = 0; call < 50; ++call) {
    const std::set<int> seen = threads_seen(4, 64, [](std::size_t) {});
    ids.insert(seen.begin(), seen.end());
  }
  EXPECT_LE(ids.size(), 4u);
}

// Worker threads do not survive fork(); a forked child must still fan out
// instead of silently running every wide call on its one thread. Kept out of
// the tsan_smoke filter: ThreadSanitizer does not support threads started
// after a multi-threaded fork.
TEST(ParallelForFork, ChildSpawnsItsOwnWorkers) {
  (void)threads_seen(4, 64, [](std::size_t) {});  // parent has workers now
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Index 0 is claimed first, and its thread blocks in it until another
    // index has run, which only a second thread can do. Without helpers the
    // wait times out instead of hanging.
    std::mutex mu;
    std::condition_variable cv;
    bool other_ran = false;
    bool timed_out = false;
    const std::set<int> ids = threads_seen(4, 64, [&](std::size_t i) {
      std::unique_lock lk{mu};
      if (i == 0) {
        timed_out = !cv.wait_for(lk, std::chrono::seconds(30),
                                 [&] { return other_ran; });
      } else {
        other_ran = true;
        cv.notify_all();
      }
    });
    _exit(!timed_out && ids.size() > 1 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(ParallelFor, CountsOneBatchAndEveryIndexAtEveryWidth) {
  const auto counter = [](const char* name) {
    const auto snap = obs::MetricsRegistry::global().snapshot();
    const std::uint64_t* v = snap.find_counter(name);
    return v != nullptr ? *v : 0;
  };
  for (const int threads : {1, 4}) {
    const std::uint64_t batches = counter("pool.batches");
    const std::uint64_t tasks = counter("pool.tasks_run");
    parallel_for(threads, 10, [](std::size_t) {});
    EXPECT_EQ(counter("pool.batches"), batches + 1) << "threads " << threads;
    EXPECT_EQ(counter("pool.tasks_run"), tasks + 10) << "threads " << threads;
  }
}

}  // namespace
}  // namespace wheels::core
