#include "core/obs/trace_export.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ostream>

namespace wheels::core::obs {

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::int64_t trace_now_us() {
  using namespace std::chrono;
  static const steady_clock::time_point epoch = steady_clock::now();
  return duration_cast<microseconds>(steady_clock::now() - epoch).count();
}

int trace_thread_id() {
  static std::atomic<int> next{1};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

TraceCollector& TraceCollector::global() {
  // Never destroyed: the std::atexit flush (flush_at_exit) and executor
  // workers may still reach it after static destruction has begun.
  static TraceCollector* const collector = [] {
    auto* c = new TraceCollector;
    c->set_enabled(std::getenv("WHEELS_TRACE_OUT") != nullptr);
    return c;
  }();
  return *collector;
}

void TraceCollector::record(std::string_view name, std::string_view category,
                            std::int64_t ts_us, std::int64_t dur_us) {
  TraceEvent e;
  e.name = std::string{name};
  e.category = std::string{category};
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.tid = trace_thread_id();
  std::lock_guard lk{mu_};
  events_.push_back(std::move(e));
}

std::size_t TraceCollector::size() const {
  std::lock_guard lk{mu_};
  return events_.size();
}

void TraceCollector::clear() {
  std::lock_guard lk{mu_};
  events_.clear();
}

void TraceCollector::write_chrome_trace(std::ostream& os) const {
  std::lock_guard lk{mu_};
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    if (i > 0) os << ',';
    os << "\n  {\"name\": \"" << json_escape(e.name) << "\", \"cat\": \""
       << json_escape(e.category) << "\", \"ph\": \"X\", \"ts\": " << e.ts_us
       << ", \"dur\": " << e.dur_us << ", \"pid\": 1, \"tid\": " << e.tid
       << "}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

ScopedSpan::ScopedSpan(std::string_view name, std::string_view category,
                       TraceCollector& collector) {
  if (!collector.enabled()) return;
  collector_ = &collector;
  name_ = std::string{name};
  category_ = std::string{category};
  start_us_ = trace_now_us();
}

ScopedSpan::~ScopedSpan() {
  if (collector_ == nullptr) return;
  collector_->record(name_, category_, start_us_, trace_now_us() - start_us_);
}

}  // namespace wheels::core::obs
