#include "util/strict_text.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace divsec::util {

std::optional<std::uint64_t> to_u64(std::string_view text, int base) noexcept {
  std::uint64_t v = 0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v, base);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return v;
}

std::optional<double> to_double(std::string_view text) noexcept {
  double v = 0.0;
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, v);
  if (ec != std::errc{} || ptr != last || !std::isfinite(v)) return std::nullopt;
  return v + 0.0;  // -0 is 0
}

std::string format_double(double v) {
  char buf[64];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  for (std::size_t start = 0;;) {
    const std::size_t end = text.find(sep, start);
    out.push_back(text.substr(start, end == std::string_view::npos ? end : end - start));
    if (end == std::string_view::npos) return out;
    start = end + 1;
  }
}

}  // namespace divsec::util
