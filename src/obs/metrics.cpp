#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "util/file.h"
#include "util/json.h"

#if DIVSEC_OBS
#include <map>
#include <memory>
#include <mutex>
#endif

namespace divsec::obs {

namespace {

template <typename Vec>
auto find_by_name(const Vec& v, std::string_view name) {
  auto it = std::lower_bound(
      v.begin(), v.end(), name,
      [](const auto& entry, std::string_view key) { return entry.name < key; });
  return (it != v.end() && it->name == name) ? it : v.end();
}

}  // namespace

double HistogramValue::quantile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    cum += buckets[b];
    if (static_cast<double>(cum) >= target && cum > 0) {
      // Upper edge of bucket b: bucket 0 holds exactly zero, bucket b
      // holds values with bit width b, i.e. < 2^b.
      return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b));
    }
  }
  return std::ldexp(1.0, static_cast<int>(kHistogramBuckets));
}

std::uint64_t Snapshot::counter(std::string_view name) const {
  const auto it = find_by_name(counters, name);
  return it == counters.end() ? 0 : it->value;
}

std::uint64_t Snapshot::gauge(std::string_view name) const {
  const auto it = find_by_name(gauges, name);
  return it == gauges.end() ? 0 : it->value;
}

const HistogramValue* Snapshot::histogram(std::string_view name) const {
  const auto it = find_by_name(histograms, name);
  return it == histograms.end() ? nullptr : &*it;
}

// ---------------------------------------------------------------------------
// Registry (only in instrumented builds).
// ---------------------------------------------------------------------------

#if DIVSEC_OBS

namespace {

struct Registry {
  std::mutex mu;
  // std::map keeps iteration sorted, so snapshots are ordered by name
  // without a separate sort; unique_ptr keeps references stable.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

/// Intentionally leaked: Executor workers and other static-lifetime
/// threads may touch metrics during shutdown, so the registry must
/// outlive every other static destructor.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

template <typename Map>
auto& lookup(Map& map, std::mutex& mu, std::string_view name) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return *it->second;
}

}  // namespace

Counter& counter(std::string_view name) {
  Registry& r = registry();
  return lookup(r.counters, r.mu, name);
}

Gauge& gauge(std::string_view name) {
  Registry& r = registry();
  return lookup(r.gauges, r.mu, name);
}

Histogram& histogram(std::string_view name) {
  Registry& r = registry();
  return lookup(r.histograms, r.mu, name);
}

Snapshot snapshot() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  Snapshot snap;
  snap.counters.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters)
    snap.counters.push_back({name, c->total()});
  snap.gauges.reserve(r.gauges.size());
  for (const auto& [name, g] : r.gauges)
    snap.gauges.push_back({name, g->value()});
  snap.histograms.reserve(r.histograms.size());
  for (const auto& [name, h] : r.histograms) {
    HistogramValue hv;
    hv.name = name;
    h->fill(hv);
    snap.histograms.push_back(std::move(hv));
  }
  return snap;
}

void reset() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, c] : r.counters) c->clear();
  for (auto& [name, g] : r.gauges) g->clear();
  for (auto& [name, h] : r.histograms) h->clear();
}

#endif  // DIVSEC_OBS

// ---------------------------------------------------------------------------
// Sidecar JSON — emit, parse, merge, file I/O (always compiled).
// ---------------------------------------------------------------------------

std::string metrics_json(const Snapshot& snap) {
  std::string out;
  out += "{\n  \"divsec_metrics\": 1,\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    " + util::json_string(snap.counters[i].name) + ": " +
           std::to_string(snap.counters[i].value);
  }
  out += snap.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    " + util::json_string(snap.gauges[i].name) + ": " +
           std::to_string(snap.gauges[i].value);
  }
  out += snap.gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramValue& h = snap.histograms[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    " + util::json_string(h.name) +
           ": {\"count\": " + std::to_string(h.count) +
           ", \"sum\": " + std::to_string(h.sum) + ", \"buckets\": [";
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (b) out += ",";
      out += std::to_string(h.buckets[b]);
    }
    out += "]}";
  }
  out += snap.histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

/// Minimal strict parser for the sidecar shape emitted above. Metric
/// names are dotted-lowercase identifiers, so escape sequences inside
/// strings are rejected rather than decoded.
struct SidecarParser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("metrics sidecar: " + what + " at byte " +
                             std::to_string(pos));
  }
  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\n' || text[pos] == '\r' ||
            text[pos] == '\t'))
      ++pos;
  }
  char peek() {
    skip_ws();
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }
  bool consume(char c) {
    if (pos < text.size() && peek() == c) {
      ++pos;
      return true;
    }
    return false;
  }
  std::string parse_string() {
    expect('"');
    std::string s;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') fail("escape sequences not supported");
      s += text[pos++];
    }
    if (pos >= text.size()) fail("unterminated string");
    ++pos;
    return s;
  }
  std::uint64_t parse_u64() {
    skip_ws();
    if (pos >= text.size() || text[pos] < '0' || text[pos] > '9')
      fail("expected unsigned integer");
    std::uint64_t v = 0;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      const std::uint64_t digit = static_cast<std::uint64_t>(text[pos] - '0');
      if (v > (UINT64_MAX - digit) / 10) fail("integer overflow");
      v = v * 10 + digit;
      ++pos;
    }
    return v;
  }
  void expect_key(const std::string& key) {
    if (parse_string() != key) fail("expected key \"" + key + "\"");
    expect(':');
  }
};

}  // namespace

Snapshot parse_metrics_json(std::string_view text) {
  SidecarParser p{text};
  Snapshot snap;
  p.expect('{');
  p.expect_key("divsec_metrics");
  if (p.parse_u64() != 1)
    throw std::runtime_error("metrics sidecar: unsupported version");
  p.expect(',');
  p.expect_key("counters");
  p.expect('{');
  if (!p.consume('}')) {
    do {
      CounterValue c;
      c.name = p.parse_string();
      p.expect(':');
      c.value = p.parse_u64();
      snap.counters.push_back(std::move(c));
    } while (p.consume(','));
    p.expect('}');
  }
  p.expect(',');
  p.expect_key("gauges");
  p.expect('{');
  if (!p.consume('}')) {
    do {
      GaugeValue g;
      g.name = p.parse_string();
      p.expect(':');
      g.value = p.parse_u64();
      snap.gauges.push_back(std::move(g));
    } while (p.consume(','));
    p.expect('}');
  }
  p.expect(',');
  p.expect_key("histograms");
  p.expect('{');
  if (!p.consume('}')) {
    do {
      HistogramValue h;
      h.name = p.parse_string();
      p.expect(':');
      p.expect('{');
      p.expect_key("count");
      h.count = p.parse_u64();
      p.expect(',');
      p.expect_key("sum");
      h.sum = p.parse_u64();
      p.expect(',');
      p.expect_key("buckets");
      p.expect('[');
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        if (b) p.expect(',');
        h.buckets[b] = p.parse_u64();
      }
      p.expect(']');
      p.expect('}');
      snap.histograms.push_back(std::move(h));
    } while (p.consume(','));
    p.expect('}');
  }
  p.expect('}');
  // Sorted order is part of the format, but a hand-edited sidecar
  // shouldn't break lookups — restore the invariant instead.
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

void merge_into(Snapshot& into, const Snapshot& from) {
  for (const CounterValue& c : from.counters) {
    const auto it = find_by_name(into.counters, c.name);
    if (it == into.counters.end()) {
      into.counters.insert(
          std::lower_bound(into.counters.begin(), into.counters.end(), c.name,
                           [](const CounterValue& e, std::string_view key) {
                             return e.name < key;
                           }),
          c);
    } else {
      const auto idx = static_cast<std::size_t>(it - into.counters.cbegin());
      into.counters[idx].value += c.value;
    }
  }
  for (const GaugeValue& g : from.gauges) {
    const auto it = find_by_name(into.gauges, g.name);
    if (it == into.gauges.end()) {
      into.gauges.insert(
          std::lower_bound(into.gauges.begin(), into.gauges.end(), g.name,
                           [](const GaugeValue& e, std::string_view key) {
                             return e.name < key;
                           }),
          g);
    } else {
      const auto idx = static_cast<std::size_t>(it - into.gauges.cbegin());
      into.gauges[idx].value = std::max(into.gauges[idx].value, g.value);
    }
  }
  for (const HistogramValue& h : from.histograms) {
    const auto it = find_by_name(into.histograms, h.name);
    if (it == into.histograms.end()) {
      into.histograms.insert(
          std::lower_bound(into.histograms.begin(), into.histograms.end(),
                           h.name,
                           [](const HistogramValue& e, std::string_view key) {
                             return e.name < key;
                           }),
          h);
    } else {
      const auto idx = static_cast<std::size_t>(it - into.histograms.cbegin());
      HistogramValue& dst = into.histograms[idx];
      dst.count += h.count;
      dst.sum += h.sum;
      for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        dst.buckets[b] += h.buckets[b];
    }
  }
}

void write_metrics_file(const std::string& path, const Snapshot& snap) {
  util::write_file(path, metrics_json(snap));
}

Snapshot read_metrics_file(const std::string& path) {
  return parse_metrics_json(util::read_file(path));
}

}  // namespace divsec::obs
