// strict_text.h — the one text grammar every divsec reader shares.
//
// Preset names, family and threat specs, CLI flags, task plans, family
// JSON and metrics sidecars read numbers, lists and JSON only through
// these helpers. Counts are decimal digits only (no sign, space, NUL or
// trailing byte) and fit in 64 bits; reals are finite decimals
// (std::from_chars: no '+', hex, inf or nan) with -0 stored as 0;
// JSON is a strict subset (no escapes, no raw control bytes, RFC 8259
// numbers, nothing after the top-level value). Throwing helpers take
// the caller's exception type as a template parameter and its message
// prefix as an argument.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace divsec::util {

/// The whole of `text` as an unsigned integer in `base` (10 or 16; hex
/// digits of either case), or nullopt on an empty view, any other byte,
/// or overflow.
[[nodiscard]] std::optional<std::uint64_t> to_u64(std::string_view text,
                                                  int base = 10) noexcept;

/// The whole of `text` as a finite double (-0 comes back as +0), or
/// nullopt on any other byte, non-finite value or overflow.
[[nodiscard]] std::optional<double> to_double(std::string_view text) noexcept;

/// Shortest "%.*g" rendering that reads back to exactly `v`: the one
/// spelling canonical specs print.
[[nodiscard]] std::string format_double(double v);

/// Every piece of `text` between `sep` bytes, empty ones included:
/// "a,,b" gives {"a", "", "b"} and "" gives {""}.
[[nodiscard]] std::vector<std::string_view> split(std::string_view text, char sep);

/// to_u64 that throws Error("<what> needs a non-negative integer, got
/// '<text>'").
template <class Error>
std::uint64_t require_u64(std::string_view text, const std::string& what) {
  if (const auto v = to_u64(text)) return *v;
  throw Error(what + " needs a non-negative integer, got '" + std::string(text) + "'");
}

/// to_double that throws Error("<what> needs a finite number, got
/// '<text>'").
template <class Error>
double require_double(std::string_view text, const std::string& what) {
  if (const auto v = to_double(text)) return *v;
  throw Error(what + " needs a finite number, got '" + std::string(text) + "'");
}

/// The `key=value` items of a comma list, empty items skipped. An item
/// without '=' throws Error("<context>: expected key=value, got
/// '<item>'").
template <class Error>
std::vector<std::pair<std::string_view, std::string_view>> key_values(
    std::string_view list, const std::string& context) {
  std::vector<std::pair<std::string_view, std::string_view>> out;
  for (const std::string_view item : split(list, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos)
      throw Error(context + ": expected key=value, got '" + std::string(item) + "'");
    out.emplace_back(item.substr(0, eq), item.substr(eq + 1));
  }
  return out;
}

/// A cursor over a strict JSON subset (see the file comment). Every
/// failure throws Error("<context>: <what> at byte <offset>").
template <class Error>
struct JsonReader {
  std::string_view text;
  std::string context;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw Error(context + ": " + what + " at byte " + std::to_string(pos));
  }
  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\n' ||
                                 text[pos] == '\r' || text[pos] == '\t'))
      ++pos;
  }
  /// Consume `c` if it is the next non-whitespace byte.
  bool consume(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }
  void expect(char c) {
    if (consume(c)) return;
    fail(pos < text.size() ? std::string("expected '") + c + "'"
                           : std::string("unexpected end of input"));
  }
  [[nodiscard]] bool at_end() {
    skip_ws();
    return pos == text.size();
  }
  std::string string() {
    expect('"');
    const std::size_t start = pos;
    for (; pos < text.size() && text[pos] != '"'; ++pos) {
      if (text[pos] == '\\') fail("escape sequences are not supported");
      if (static_cast<unsigned char>(text[pos]) < 0x20) fail("control byte in string");
    }
    if (pos >= text.size()) fail("unterminated string");
    return std::string(text.substr(start, pos++ - start));
  }
  /// `"key":`, or fail naming the expected key.
  void expect_key(std::string_view key) {
    if (string() != key) fail("expected key \"" + std::string(key) + "\"");
    expect(':');
  }
  /// The bytes of one JSON number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
  std::string_view number() {
    skip_ws();
    const std::size_t start = pos;
    const auto digits = [this] {
      const std::size_t from = pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
      if (pos == from) fail("expected a digit");
    };
    if (pos < text.size() && text[pos] == '-') ++pos;
    if (pos < text.size() && text[pos] == '0') ++pos;
    else digits();
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      digits();
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      digits();
    }
    return text.substr(start, pos - start);
  }
  std::uint64_t u64() {
    const std::string_view digits = number();
    if (const auto v = to_u64(digits)) return *v;
    fail("expected an unsigned 64-bit integer, got '" + std::string(digits) + "'");
  }
};

}  // namespace divsec::util
