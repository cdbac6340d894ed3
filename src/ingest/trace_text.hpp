// Shared strict-text helpers for trace ingestion.
//
// Every ingest adapter reads text formats published by third parties, so
// they share one dialect: '#'-prefixed comment lines and blank lines are
// skipped anywhere (published traces carry both), CRLF endings are
// accepted, numbers must parse full-string and finite, and every diagnostic
// carries the physical 1-based line number of the offending line —
// skipping a line never renumbers the ones after it.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "core/sim_time.hpp"

namespace wheels::ingest {

/// Cursor over the payload lines of a trace: yields each non-blank,
/// non-comment line with CR stripped, tracking physical line numbers.
class TraceLineReader {
 public:
  explicit TraceLineReader(std::istream& is) : is_(is) {}

  /// Advance to the next payload line; false at end of input.
  bool next(std::string& line);

  /// Physical 1-based line number of the last line `next` returned (or of
  /// the end of input once `next` returned false).
  std::size_t line_number() const { return line_; }

 private:
  std::istream& is_;
  std::size_t line_ = 0;
};

/// Split one CSV row on ',' (CR already stripped by the line source):
/// refill `cells` with views into `line`, valid only as long as its buffer.
void split_trace_row(std::string_view line, std::vector<std::string_view>& cells);

/// Full-string strtod with a finiteness check. Throws std::runtime_error
/// "line N: ..." on malformed input (callers prefix their own context).
/// The cell need not be NUL-terminated.
double parse_trace_double(std::string_view cell, std::size_t line);

/// Non-negative integer milliseconds, full-string. Throws like above.
SimMillis parse_trace_time_ms(std::string_view cell, std::size_t line);

/// Throws std::runtime_error{"line N: msg"}.
[[noreturn]] void trace_fail(std::size_t line, const std::string& msg);

}  // namespace wheels::ingest
