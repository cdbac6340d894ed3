#include "spans.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "core/json.hpp"

namespace wheelsbench {

namespace obs = wheels::core::obs;
namespace json = wheels::core::json;

std::vector<Span> read_spans(const obs::TraceCollector& collector, bool own) {
  std::ostringstream os;
  collector.write_chrome_trace(os);
  const json::Doc doc{"trace"};
  const json::Value root = doc.parse(os.str());
  const json::Value& events =
      doc.as(doc.get(root, "traceEvents"), json::Value::Kind::Array,
             "traceEvents");
  std::vector<Span> out;
  out.reserve(events.items.size());
  for (const json::Value& e : events.items) {
    Span s;
    s.name = doc.str(e, "name");
    s.ts_us = static_cast<std::int64_t>(doc.num(e, "ts"));
    s.dur_us = static_cast<std::int64_t>(doc.num(e, "dur"));
    s.tid = static_cast<int>(doc.num(e, "tid"));
    s.own = own;
    out.push_back(std::move(s));
  }
  return out;
}

SpanTree::SpanTree(std::vector<Span> spans, int runner_tid)
    : spans_(std::move(spans)) {
  // Outer spans first: earlier start, then later end, then the benchmark's
  // own span before a library span with the same interval (it wraps the
  // call). ScopedSpan records on destruction, so among equal intervals of
  // one source the later-recorded span is the outer one.
  std::vector<int> order(spans_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Span& x = spans_[a];
    const Span& y = spans_[b];
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    if (x.end_us() != y.end_us()) return x.end_us() > y.end_us();
    if (x.own != y.own) return x.own;
    return a > b;
  });

  std::map<int, std::vector<int>> open;  // per-thread stack of open spans
  const auto innermost_containing = [&](std::vector<int>& stack,
                                        const Span& s) {
    // Spans of one thread nest properly, so an open span that ended by the
    // time `s` starts can contain neither `s` nor anything after it.
    while (!stack.empty() &&
           (spans_[stack.back()].end_us() < s.ts_us ||
            (spans_[stack.back()].end_us() == s.ts_us && s.dur_us > 0))) {
      stack.pop_back();
    }
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (spans_[*it].end_us() >= s.end_us()) return *it;
    }
    return -1;
  };
  for (const int i : order) {
    Span& s = spans_[i];
    s.parent = innermost_containing(open[s.tid], s);
    if (s.parent < 0 && s.tid != runner_tid) {
      s.parent = innermost_containing(open[runner_tid], s);
    }
    open[s.tid].push_back(i);
  }

  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.ts_us, s.end_us());
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t lo = 0;
    std::int64_t hi = -1;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    spans_[i].self_us = std::max<std::int64_t>(0, spans_[i].dur_us - covered);
  }
}

int SpanTree::own_root(std::string_view name) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].own && spans_[i].parent < 0 && spans_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

bool SpanTree::under(int span, int root) const {
  for (int p = spans_[span].parent; p >= 0; p = spans_[p].parent) {
    if (p == root) return true;
  }
  return false;
}

double SpanTree::own_total_s(int root, std::string_view name) const {
  std::int64_t us = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.own && s.name == name && under(static_cast<int>(i), root)) {
      us += s.dur_us;
    }
  }
  return static_cast<double>(us) * 1e-6;
}

double SpanTree::library_self_s(int root, std::string_view name) const {
  std::int64_t us = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!s.own && s.name == name && under(static_cast<int>(i), root)) {
      us += s.self_us;
    }
  }
  return static_cast<double>(us) * 1e-6;
}

}  // namespace wheelsbench
