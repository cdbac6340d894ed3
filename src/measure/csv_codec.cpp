#include "measure/csv_codec.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace wheels::measure::csv {

namespace {

// strtod/strtoll need NUL-terminated input; views into a line or a mapped
// chunk are not. Numeric cells are short, so a stack copy keeps the exact
// classic parsing semantics (sign, hex floats, ERANGE) without heap traffic.
template <typename Fn>
auto with_cstr(std::string_view cell, Fn&& fn) {
  char stack[64];
  if (cell.size() < sizeof(stack)) {
    std::memcpy(stack, cell.data(), cell.size());
    stack[cell.size()] = '\0';
    return fn(stack);
  }
  const std::string heap{cell};
  return fn(heap.c_str());
}

std::string_view without_cr(std::string_view text) {
  if (!text.empty() && text.back() == '\r') text.remove_suffix(1);
  return text;
}

}  // namespace

void fail(std::size_t line, const std::string& msg) {
  throw std::runtime_error{"line " + std::to_string(line) + ": " + msg};
}

void split_row(std::string_view line, std::vector<std::string_view>& cells) {
  cells.clear();
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      cells.push_back(line.substr(start));
      return;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

double parse_double(std::string_view cell, std::size_t line) {
  if (cell.empty()) fail(line, "empty numeric field");
  return with_cstr(cell, [&](const char* c_str) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(c_str, &end);
    if (end != c_str + cell.size()) {
      fail(line, "malformed number '" + std::string{cell} + "'");
    }
    // ERANGE also flags underflow, whose subnormal (or zero) result is a
    // finite value the writer may well have printed: only overflow fails.
    if (errno == ERANGE && std::isinf(v)) {
      fail(line, "number out of range '" + std::string{cell} + "'");
    }
    if (!std::isfinite(v)) {
      fail(line, "non-finite number '" + std::string{cell} + "'");
    }
    return v;
  });
}

std::int64_t parse_i64(std::string_view cell, std::size_t line) {
  if (cell.empty()) fail(line, "empty integer field");
  return with_cstr(cell, [&](const char* c_str) {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(c_str, &end, 10);
    if (end != c_str + cell.size()) {
      fail(line, "malformed integer '" + std::string{cell} + "'");
    }
    if (errno == ERANGE) {
      fail(line, "integer out of range '" + std::string{cell} + "'");
    }
    return static_cast<std::int64_t>(v);
  });
}

char* format_double(char* first, double v) {
  return std::to_chars(first, first + kMaxDoubleChars, v,
                       std::chars_format::general,
                       std::numeric_limits<double>::max_digits10)
      .ptr;
}

void Writer::text(std::string_view s) {
  while (!s.empty()) {
    if (used_ == buf_.size()) flush();
    const std::size_t n = std::min(s.size(), buf_.size() - used_);
    std::memcpy(buf_.data() + used_, s.data(), n);
    used_ += n;
    s.remove_prefix(n);
  }
}

void Writer::flush() {
  os_.write(buf_.data(), static_cast<std::streamsize>(used_));
  used_ = 0;
}

TableShape::TableShape(std::string text)
    : header(std::move(text)),
      columns(static_cast<std::size_t>(
                  std::count(header.begin(), header.end(), ',')) +
              1) {}

void TableShape::check_header(const std::string_view* first,
                              std::size_t line) const {
  if (first == nullptr) {
    fail(line, "missing header, expected '" + header + "'");
  }
  if (without_cr(*first) != header) {
    fail(line, "unexpected header '" + std::string{without_cr(*first)} +
                   "', expected '" + header + "'");
  }
}

bool TableShape::split(std::string_view text, std::size_t line,
                       std::vector<std::string_view>& cells) const {
  text = without_cr(text);
  if (text.empty()) return false;
  if (text == header) fail(line, "duplicated header");
  split_row(text, cells);
  if (cells.size() != columns) {
    fail(line, "expected " + std::to_string(columns) + " fields, got " +
                   std::to_string(cells.size()));
  }
  return true;
}

}  // namespace wheels::measure::csv
