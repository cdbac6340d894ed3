#include "core/json.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace wheels::core::json {

namespace {

/// The recursive-descent reader behind Doc::parse. Tracks the current line
/// so every token (and so every decode error downstream) can cite it.
class Reader {
 public:
  Reader(std::string_view text, const Doc& doc, int first_line)
      : text_(text), doc_(doc), line_(first_line) {}

  Value parse() {
    Value v = value();
    skip_ws();
    if (pos_ < text_.size()) doc_.fail(line_, "trailing content after document");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') ++line_;
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) doc_.fail(line_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      doc_.fail(line_, std::string{"expected '"} + c + "', got '" +
                           text_[pos_] + "'");
    }
    ++pos_;
  }

  Value value() {
    const char c = peek();
    Value v;
    v.line = line_;
    switch (c) {
      case '{': return object(v);
      case '[': return array(v);
      case '"':
        v.kind = Value::Kind::String;
        v.text = string();
        return v;
      case 't':
      case 'f':
        v.kind = Value::Kind::Bool;
        v.boolean = c == 't';
        literal(c == 't' ? "true" : "false");
        return v;
      case 'n':
        literal("null");
        return v;
      default: return number(v);
    }
  }

  Value object(Value v) {
    v.kind = Value::Kind::Object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') doc_.fail(line_, "expected a quoted object key");
      std::string key = string();
      expect(':');
      v.keys.emplace_back(std::move(key), value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value array(Value v) {
    v.kind = Value::Kind::Array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\n') doc_.fail(line_, "unterminated string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) doc_.fail(line_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/': out.push_back(e); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, code_point()); break;
        default:
          doc_.fail(line_, std::string{"unknown escape '\\"} + e + "'");
      }
    }
    doc_.fail(line_, "unterminated string");
  }

  /// The code point of a \uXXXX escape (its "\u" already consumed); a
  /// UTF-16 surrogate pair takes the second escape as well.
  char32_t code_point() {
    const char32_t high = hex4();
    if (high < 0xD800 || high > 0xDFFF) return high;
    if (high > 0xDBFF || text_.substr(pos_, 2) != "\\u") {
      doc_.fail(line_, "lone surrogate in \\u escape");
    }
    pos_ += 2;
    const char32_t low = hex4();
    if (low < 0xDC00 || low > 0xDFFF) {
      doc_.fail(line_, "lone surrogate in \\u escape");
    }
    return 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
  }

  char32_t hex4() {
    const std::string_view digits = text_.substr(pos_, 4);
    unsigned v = 0;
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), v, 16);
    if (digits.size() != 4 || ec != std::errc{} ||
        end != digits.data() + digits.size()) {
      doc_.fail(line_, "malformed \\u escape");
    }
    pos_ += 4;
    return v;
  }

  static void append_utf8(std::string& out, char32_t cp) {
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    constexpr char32_t kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    out.push_back(static_cast<char>(kLead[tail] | (cp >> (6 * tail))));
    for (int i = tail - 1; i >= 0; --i) {
      out.push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F)));
    }
  }

  void literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      doc_.fail(line_,
                "malformed literal (expected '" + std::string{word} + "')");
    }
    pos_ += word.size();
  }

  Value number(Value v) {
    v.kind = Value::Kind::Number;
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token.empty()) doc_.fail(line_, "expected a value");
    // A plain integer decodes exactly; its double is the exact value
    // rounded once, which is what strtod returns for the same token.
    const bool negative = token.front() == '-';
    const std::string_view digits = token.substr(negative ? 1 : 0);
    if (!digits.empty() &&
        digits.find_first_not_of("0123456789") == std::string_view::npos &&
        std::from_chars(digits.data(), digits.data() + digits.size(),
                        v.magnitude)
                .ec == std::errc{}) {
      v.integral = true;
      v.negative = negative;
      v.number = static_cast<double>(v.magnitude);
      if (negative) v.number = -v.number;
      return v;
    }
    const std::string owned{token};
    char* end = nullptr;
    v.number = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size()) {
      doc_.fail(v.line, "malformed number '" + owned + "'");
    }
    return v;
  }

  std::string_view text_;
  const Doc& doc_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

}  // namespace

Value Doc::parse(std::string_view text) const {
  return Reader{text, *this, first_line_}.parse();
}

void Doc::fail(int line, const std::string& msg) const {
  throw std::runtime_error{prefix_ + ": line " + std::to_string(line) + ": " +
                           msg};
}

const Value* Doc::find(const Value& object, std::string_view key) const {
  for (const auto& [k, v] : object.keys) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Doc::get(const Value& object, std::string_view key) const {
  if (const Value* v = find(object, key)) return *v;
  fail(object.line, "missing key \"" + std::string{key} + "\"");
}

const Value& Doc::as(const Value& v, Value::Kind kind,
                     const std::string& what) const {
  if (v.kind != kind) fail(v.line, "expected " + what);
  return v;
}

double Doc::num(const Value& object, std::string_view key) const {
  return as(get(object, key), Value::Kind::Number,
            "a number for \"" + std::string{key} + "\"")
      .number;
}

std::string Doc::str(const Value& object, std::string_view key) const {
  return as(get(object, key), Value::Kind::String,
            "a string for \"" + std::string{key} + "\"")
      .text;
}

bool Doc::flag(const Value& object, std::string_view key) const {
  return as(get(object, key), Value::Kind::Bool,
            "a boolean for \"" + std::string{key} + "\"")
      .boolean;
}

namespace {

/// `v` after checking it is a Number; the integer accessors' shared preamble.
const Value& integer_token(const Doc& doc, const Value& v,
                           std::string_view key) {
  return doc.as(v, Value::Kind::Number,
                "an integer for \"" + std::string{key} + "\"");
}

[[noreturn]] void fail_range(const Doc& doc, const Value& v,
                             std::string_view key, const std::string& lo,
                             const std::string& hi) {
  doc.fail(v.line, "\"" + std::string{key} + "\" must be an integer in [" +
                       lo + ", " + hi + "]");
}

}  // namespace

std::uint64_t Doc::u64(const Value& v, std::string_view key) const {
  const Value& n = integer_token(*this, v, key);
  if (!n.integral || (n.negative && n.magnitude != 0)) {
    fail_range(*this, n, key, "0",
               std::to_string(std::numeric_limits<std::uint64_t>::max()));
  }
  return n.magnitude;
}

std::int64_t Doc::i64(const Value& v, std::string_view key, std::int64_t lo,
                      std::int64_t hi) const {
  const Value& n = integer_token(*this, v, key);
  // -2^63 is the one magnitude beyond INT64_MAX that fits.
  const std::uint64_t limit =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max()) +
      (n.negative ? 1 : 0);
  const std::int64_t x = static_cast<std::int64_t>(
      n.negative ? 0 - n.magnitude : n.magnitude);
  if (!n.integral || n.magnitude > limit || x < lo || x > hi) {
    fail_range(*this, n, key, std::to_string(lo), std::to_string(hi));
  }
  return x;
}

std::vector<double> Doc::doubles(const Value& v) const {
  as(v, Value::Kind::Array, "an array of numbers");
  std::vector<double> out;
  out.reserve(v.items.size());
  for (const Value& item : v.items) {
    out.push_back(
        as(item, Value::Kind::Number, "a number in the array").number);
  }
  return out;
}

std::string escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace wheels::core::json
