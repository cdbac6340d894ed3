#include "core/parallel.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/env.hpp"
#include "core/obs/metrics.hpp"

namespace wheels::core {

namespace {

/// One parallel_for call with width > 1. Held by shared_ptr, so a helper
/// that picks the batch up late only ever touches live state; `fn` is
/// dereferenced only for a claimed index < n, and the caller does not
/// return before every such index has finished.
struct Batch {
  Batch(const std::function<void(std::size_t)>& f, std::size_t count,
        std::size_t max_helpers)
      : fn(&f), n(count), helpers(max_helpers), free_slots(max_helpers) {}

  /// Claim and run indices until none are left; returns how many ran here.
  std::size_t drain() {
    std::size_t ran = 0;
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard lk{mu};
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
      ++ran;
    }
    return ran;
  }

  /// Report `ran` finished indices; the last report wakes the caller.
  void finish(std::size_t ran) {
    if (done.fetch_add(ran) + ran == n) {
      std::lock_guard lk{mu};
      cv.notify_all();
    }
  }

  /// Block until every index has finished, then rethrow the lowest
  /// throwing index's exception, if any. The exception leaves the batch, so
  /// the thread that handles it also releases it, even when a helper drops
  /// the last reference to the batch afterwards.
  void wait() {
    std::unique_lock lk{mu};
    cv.wait(lk, [this] { return done == n; });
    if (error) std::rethrow_exception(std::exchange(error, nullptr));
  }

  const std::function<void(std::size_t)>* fn;
  const std::size_t n;
  const std::size_t helpers;  // width - 1: workers 0..helpers-1 may help
  std::size_t free_slots;     // helper slots left; guarded by Executor::mu_
  std::atomic<std::size_t> next{0};  // next unclaimed index
  std::atomic<std::size_t> done{0};  // finished indices
  std::mutex mu;  // guards the two fields below; cv waits on `done`
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
  std::condition_variable cv;
};

/// The process-wide worker set. Workers are spawned on demand and never
/// exit; the executor is never destroyed, so its threads are never joined
/// and a worker blocked in work() at process exit touches no destroyed
/// state. Worker k only helps batches wider than k + 1, so a width-w call
/// is served by the same w - 1 threads however many a wider call spawned.
/// A batch leaves the open list once its helper slots are taken; a helper
/// that takes a slot after the indices ran out just reports zero.
class Executor {
 public:
  static Executor& global() {
    // Threads do not survive fork(): a child process starts over with an
    // empty executor (the parent's copy is abandoned, never touched again).
    static Executor* executor = [] {
      pthread_atfork(nullptr, nullptr, [] { executor = new Executor; });
      return new Executor;
    }();
    return *executor;
  }

  void publish(const std::shared_ptr<Batch>& batch) {
    {
      std::lock_guard lk{mu_};
      while (workers_.size() < batch->helpers) {
        workers_.emplace_back([this, self = workers_.size()] { work(self); });
      }
      open_.push_back(batch);
    }
    cv_.notify_all();
  }

 private:
  void work(std::size_t self) {
    static const obs::Counter steals{"rt.pool.steals"};
    for (;;) {
      std::shared_ptr<Batch> batch;
      {
        std::unique_lock lk{mu_};
        auto it = open_.end();
        cv_.wait(lk, [&] {
          it = std::find_if(open_.begin(), open_.end(),
                            [self](const std::shared_ptr<Batch>& b) {
                              return self < b->helpers;
                            });
          return it != open_.end();
        });
        batch = *it;
        if (--batch->free_slots == 0) open_.erase(it);
      }
      const std::size_t ran = batch->drain();
      if (ran > 0) steals.add(ran);
      batch->finish(ran);
    }
  }

  std::mutex mu_;  // guards the two fields below and Batch::free_slots
  std::vector<std::shared_ptr<Batch>> open_;  // batches with free slots
  std::vector<std::thread> workers_;
  std::condition_variable cv_;  // workers: "a batch was published"
};

}  // namespace

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  if (const auto v = env_int("WHEELS_THREADS")) {
    if (*v >= 1 && *v <= 4096) return static_cast<int>(*v);
    std::fprintf(stderr,
                 "[wheels] ignoring WHEELS_THREADS=%lld: expected 1..4096, "
                 "using auto\n",
                 *v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  static const obs::Counter batches{"pool.batches"};
  static const obs::Counter tasks_run{"pool.tasks_run"};
  // Wall-clock depends on scheduling, hence the "rt." prefix that keeps it
  // out of the deterministic snapshot.
  static const obs::MetricsRegistry::HistogramHandle batch_ms =
      obs::MetricsRegistry::global().histogram("rt.pool.batch_ms");
  batches.add();
  tasks_run.add(n);
  const auto start = std::chrono::steady_clock::now();

  const std::size_t width =
      std::min(static_cast<std::size_t>(resolve_threads(threads)), n);
  if (width <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  } else {
    const auto batch = std::make_shared<Batch>(fn, n, width - 1);
    Executor::global().publish(batch);
    batch->finish(batch->drain());
    batch->wait();
  }
  obs::MetricsRegistry::global().observe(
      batch_ms, std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count());
}

}  // namespace wheels::core
