// Span tree of a traced pipeline run: the benchmark's own spans around each
// public library call, merged with the spans the library records on
// core::obs::TraceCollector::global(), with self times.
//
// A span's parent is the innermost span on the same thread that contains it;
// a span with none (a pool worker's) hangs under the innermost containing
// span of the thread that drove the run. Self time is a span's duration
// minus the union of its children's intervals, so parallel children never
// count twice against their parent.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/obs/trace_export.hpp"

namespace wheelsbench {

struct Span {
  std::string name;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  int tid = 0;
  bool own = false;  // recorded by the benchmark, not the library
  int parent = -1;   // index into SpanTree::spans(), -1 for a root
  std::int64_t self_us = 0;

  std::int64_t end_us() const { return ts_us + dur_us; }
};

/// Every span `collector` holds, read back through its Chrome-trace
/// rendering (TraceCollector's only read access) with core::json.
std::vector<Span> read_spans(const wheels::core::obs::TraceCollector& collector,
                             bool own);

class SpanTree {
 public:
  /// `runner_tid` is the trace_thread_id() of the thread that ran the
  /// pipeline; orphaned spans of other threads attach to its spans.
  SpanTree(std::vector<Span> spans, int runner_tid);

  const std::vector<Span>& spans() const { return spans_; }

  /// Index of the benchmark's own root span named `name`, or -1.
  int own_root(std::string_view name) const;

  /// Summed duration of the benchmark's own spans named `name` under `root`.
  double own_total_s(int root, std::string_view name) const;
  /// Summed self time of the library's spans named `name` under `root`.
  double library_self_s(int root, std::string_view name) const;

 private:
  bool under(int span, int root) const;

  std::vector<Span> spans_;
};

}  // namespace wheelsbench
