// The strict CSV cell codec, shared by the dataset bundle
// (measure/csv_export.hpp) and the third-party traces of src/ingest/:
//  - rows split on ',' with no quoting (no cell of either carries a comma);
//  - numbers parse full-string with strtod/strtoll semantics from a
//    string_view. Doubles must be finite: NaN, inf and overflow fail, while
//    every finite value the writer prints, subnormals included, reads back;
//  - every failure throws std::runtime_error "line N: ..." citing the
//    physical 1-based line of the offending input;
//  - doubles are written by one formatter, the %.17g form, so written text
//    reads back to the identical bits.
#pragma once

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace wheels::measure::csv {

/// Throws std::runtime_error{"line N: msg"}.
[[noreturn]] void fail(std::size_t line, const std::string& msg);

/// Refill `cells` with the ','-separated fields of `line`, as views into
/// the line's buffer (valid only as long as it is).
void split_row(std::string_view line, std::vector<std::string_view>& cells);

/// Full-string finite double. Throws like fail() on malformed input.
double parse_double(std::string_view cell, std::size_t line);

/// Full-string base-10 integer. Throws like fail() on malformed input.
std::int64_t parse_i64(std::string_view cell, std::size_t line);

/// Decode one cell into a number or a "0"/"1" bool, range-checked against
/// the field's type.
template <typename T>
  requires std::is_arithmetic_v<T>
void decode(std::string_view cell, std::size_t line, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (cell != "0" && cell != "1") {
      fail(line, "malformed bool '" + std::string{cell} +
                     "' (expected 0 or 1)");
    }
    out = cell == "1";
  } else if constexpr (std::is_floating_point_v<T>) {
    out = parse_double(cell, line);
  } else {
    const std::int64_t v = parse_i64(cell, line);
    if (v < static_cast<std::int64_t>(std::numeric_limits<T>::min()) ||
        v > static_cast<std::int64_t>(std::numeric_limits<T>::max())) {
      fail(line, "integer out of range '" + std::string{cell} + "'");
    }
    out = static_cast<T>(v);
  }
}

/// Longest text format_double() writes ("-2.2250738585072014e-308").
inline constexpr std::size_t kMaxDoubleChars = 24;

/// Write `v` in the %.17g form into `first`, which must hold
/// kMaxDoubleChars; returns one past the last character written.
char* format_double(char* first, double v);

/// Buffered cell writer over an ostream: rows are encoded into a fixed
/// buffer that is flushed whenever it fills, so a table of any length
/// streams through bounded memory. Flushes on destruction.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}
  ~Writer() { flush(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void put(char c) {
    if (used_ == buf_.size()) flush();
    buf_[used_++] = c;
  }

  void text(std::string_view s);

  /// A number, or a bool as 0/1.
  template <typename T>
    requires std::is_arithmetic_v<T>
  void cell(T v) {
    if (buf_.size() - used_ < kMaxDoubleChars) flush();
    char* out = buf_.data() + used_;
    if constexpr (std::is_same_v<T, bool>) {
      *out++ = v ? '1' : '0';
    } else if constexpr (std::is_floating_point_v<T>) {
      out = format_double(out, v);
    } else {
      out = std::to_chars(out, buf_.data() + buf_.size(), v).ptr;
    }
    used_ = static_cast<std::size_t>(out - buf_.data());
  }

  void flush();

 private:
  std::ostream& os_;
  std::size_t used_ = 0;
  std::array<char, 1 << 15> buf_;
};

/// The strict shape of one headed CSV table, whatever the line source:
/// line 1 is the header, a repeated header is rejected, and every data row
/// splits into exactly as many cells as the header names. A trailing CR is
/// dropped from every line.
struct TableShape {
  explicit TableShape(std::string header);

  /// Check the first line, or its absence (`first` null).
  void check_header(const std::string_view* first, std::size_t line) const;

  /// Refill `cells` with the cells of data row `text`; false for a blank
  /// line, which holds no row.
  bool split(std::string_view text, std::size_t line,
             std::vector<std::string_view>& cells) const;

  std::string header;
  std::size_t columns;
};

/// Feed every data row of the table on `is` to `on_row(cells, line)`, the
/// cells valid for the call; blank lines are skipped.
template <typename OnRow>
void read_rows(std::istream& is, const TableShape& shape, OnRow&& on_row) {
  std::string text;
  const bool found = static_cast<bool>(std::getline(is, text));
  const std::string_view first = text;
  shape.check_header(found ? &first : nullptr, 1);
  std::vector<std::string_view> cells;
  for (std::size_t line = 2; std::getline(is, text); ++line) {
    if (shape.split(text, line, cells)) on_row(cells, line);
  }
}

}  // namespace wheels::measure::csv
