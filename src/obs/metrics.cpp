#include "obs/metrics.h"

#include <algorithm>
#include <stdexcept>

#include "util/file.h"
#include "util/json.h"
#include "util/strict_text.h"

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

/// Sorted order is part of the format, but a hand-edited sidecar
/// shouldn't break lookups: restore it. A name listed twice has no one
/// value, so it is rejected.
template <typename Vec>
void sort_unique(Vec& v, const char* kind) {
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  for (std::size_t i = 1; i < v.size(); ++i)
    if (v[i].name == v[i - 1].name)
      throw std::runtime_error(std::string("metrics sidecar: duplicate ") + kind +
                               " '" + v[i].name + "'");
}

/// A `{"name": value, ...}` object of counters or gauges.
template <typename Vec>
void read_values(util::JsonReader<std::runtime_error>& p, Vec& out) {
  p.expect('{');
  if (p.consume('}')) return;
  do {
    auto& v = out.emplace_back();
    v.name = p.string();
    p.expect(':');
    v.value = p.u64();
  } while (p.consume(','));
  p.expect('}');
}

}  // namespace

Snapshot parse_metrics_json(std::string_view text) {
  // Metric names are dotted-lowercase identifiers, so the cursor's
  // no-escapes strings cover every sidecar metrics_json writes.
  util::JsonReader<std::runtime_error> p{text, "metrics sidecar"};
  Snapshot snap;
  p.expect('{');
  p.expect_key("divsec_metrics");
  if (p.u64() != 1)
    throw std::runtime_error("metrics sidecar: unsupported version");
  p.expect(',');
  p.expect_key("counters");
  read_values(p, snap.counters);
  p.expect(',');
  p.expect_key("gauges");
  read_values(p, snap.gauges);
  p.expect(',');
  p.expect_key("histograms");
  p.expect('{');
  if (!p.consume('}')) {
    do {
      HistogramValue& h = snap.histograms.emplace_back();
      h.name = p.string();
      p.expect(':');
      p.expect('{');
      p.expect_key("count");
      h.count = p.u64();
      p.expect(',');
      p.expect_key("sum");
      h.sum = p.u64();
      p.expect(',');
      p.expect_key("buckets");
      p.expect('[');
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        if (b) p.expect(',');
        h.buckets[b] = p.u64();
      }
      p.expect(']');
      p.expect('}');
    } while (p.consume(','));
    p.expect('}');
  }
  p.expect('}');
  if (!p.at_end()) p.fail("trailing content after the sidecar object");
  sort_unique(snap.counters, "counter");
  sort_unique(snap.gauges, "gauge");
  sort_unique(snap.histograms, "histogram");
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
