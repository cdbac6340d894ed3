// Line input of the shared trace dialect.
//
// Every ingest adapter reads text formats published by third parties, so
// they share one dialect: '#'-prefixed comment lines and blank lines are
// skipped anywhere (published traces carry both), CRLF endings are
// accepted, and every diagnostic carries the physical 1-based line number
// of the offending line — skipping a line never renumbers the ones after
// it. Cells within a line go through the strict codec every CSV reader of
// the repository shares (measure/csv_codec.hpp: row split, full-string
// finite numbers, "line N: ..." errors).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

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

}  // namespace wheels::ingest
