// Chrome-tracing-format span export.
//
// Spans are coarse wall-clock intervals (a campaign phase, a fleet job, a
// pool batch) collected by TraceCollector and serialised as the Trace Event
// Format's complete events ("ph":"X"), loadable in chrome://tracing or
// Perfetto. Spans are *runtime* observability — wall-clock readings, not
// simulation state — so they never feed the deterministic metric snapshot;
// see metrics.hpp for that split.
//
// Cost: a disabled collector makes ScopedSpan a no-op (one relaxed atomic
// load, no clock reads). The global collector enables itself when
// WHEELS_TRACE_OUT is set; tests flip it explicitly with set_enabled().
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace wheels::core::obs {

struct TraceEvent {
  std::string name;
  std::string category;
  std::int64_t ts_us = 0;   // start, microseconds since the trace epoch
  std::int64_t dur_us = 0;  // duration, microseconds
  int tid = 0;              // small per-thread id (trace_thread_id())
};

/// Microseconds since the process's trace epoch (first call; steady clock).
std::int64_t trace_now_us();

/// Small dense id of the calling thread, stable for the thread's lifetime.
int trace_thread_id();

class TraceCollector {
 public:
  /// Process-wide collector; enabled at construction iff WHEELS_TRACE_OUT is
  /// set in the environment. Never destroyed, so the at-exit flush can
  /// still read it.
  static TraceCollector& global();

  TraceCollector() = default;
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  void record(std::string_view name, std::string_view category,
              std::int64_t ts_us, std::int64_t dur_us);

  std::size_t size() const;
  void clear();

  /// Serialise every recorded span as a Chrome trace JSON object
  /// ({"traceEvents": [...], ...}).
  void write_chrome_trace(std::ostream& os) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// RAII span: records [construction, destruction) into the collector when it
/// is enabled at construction time; free otherwise.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name, std::string_view category,
                      TraceCollector& collector = TraceCollector::global());
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceCollector* collector_ = nullptr;  // nullptr: disabled, no-op
  std::string name_;
  std::string category_;
  std::int64_t start_us_ = 0;
};

}  // namespace wheels::core::obs
