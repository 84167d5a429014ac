// obs/metrics.h — process-wide telemetry registry: counters, gauges,
// and log2 histograms with a lock-free hot path.
//
// Recording model
//   Every metric is backed by a fixed array of cache-line-padded stripes
//   of plain relaxed std::atomic<uint64_t>. A thread picks its stripe
//   once (thread_local round-robin) and then increments with a single
//   relaxed fetch_add — no locks, no CAS loops, no false sharing on the
//   hot path. The registry mutex is touched only on first registration
//   of a name; call sites hold a `static Counter&` handle so steady
//   state never sees it.
//
// Determinism contract
//   Metrics are observational only: nothing in the measurement pipeline
//   reads them back, so CSV/state outputs are byte-identical whether
//   recording is enabled, disabled (set_enabled(false)), or compiled
//   out (-DDIVSEC_OBS=0). All durations are recorded as integer
//   nanoseconds so snapshot merges are exact integer sums with no
//   float-order sensitivity; snapshot/JSON ordering is sorted by name.
//
// Compile gate
//   With DIVSEC_OBS=0 the recording surface (Counter/Gauge/Histogram,
//   counter()/gauge()/histogram(), snapshot(), reset()) collapses to
//   inline no-ops, but the cold sidecar layer (metrics_json, parsing,
//   merge, file I/O) stays compiled so `divsec_sweep merge/inspect`
//   keep working against sidecars produced by instrumented builds.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#if !defined(DIVSEC_OBS)
#define DIVSEC_OBS 1
#endif

#if DIVSEC_OBS
#include <atomic>
#include <bit>
#endif

namespace divsec::obs {

/// Log2 histogram resolution: bucket b counts values whose bit width is
/// b (bucket 0 is exactly zero; bucket 63 absorbs everything >= 2^62).
inline constexpr std::size_t kHistogramBuckets = 64;

// ---------------------------------------------------------------------------
// Snapshot / sidecar types — always compiled (cold path).
// ---------------------------------------------------------------------------

struct CounterValue {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeValue {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramValue {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, kHistogramBuckets> buckets{};

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Upper edge of the bucket containing quantile q (0 < q <= 1). The
  /// log2 buckets bound the true quantile within a factor of two, which
  /// is plenty for "is this microseconds or milliseconds" triage.
  [[nodiscard]] double quantile(double q) const;
};

/// A point-in-time copy of the registry, or a parsed/merged sidecar.
/// Vectors are sorted by name; lookups are binary searches.
struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] std::uint64_t gauge(std::string_view name) const;
  [[nodiscard]] const HistogramValue* histogram(std::string_view name) const;
  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Deterministic JSON export (sorted names, exact integer values).
[[nodiscard]] std::string metrics_json(const Snapshot& snap);

/// Parse a sidecar produced by metrics_json, strictly: exactly that
/// shape, read through util::JsonReader (no escapes, no leading zeros,
/// nothing after the closing brace), and no metric name listed twice
/// within a kind. Names may come in any order; the result is sorted, so
/// metrics_json(parse_metrics_json(x)) is a fixed point. Throws
/// std::runtime_error on malformed input.
[[nodiscard]] Snapshot parse_metrics_json(std::string_view text);

/// Sidecar merge rule: counters and histogram buckets/count/sum are
/// integer sums; gauges take the max (they record high-water marks).
void merge_into(Snapshot& into, const Snapshot& from);

/// Write/read a sidecar file. Both throw std::runtime_error on I/O
/// failure — a sidecar the operator asked for must not vanish silently.
void write_metrics_file(const std::string& path, const Snapshot& snap);
[[nodiscard]] Snapshot read_metrics_file(const std::string& path);

// ---------------------------------------------------------------------------
// Recording surface — striped relaxed atomics, or no-op stubs.
// ---------------------------------------------------------------------------

#if DIVSEC_OBS

namespace detail {

inline constexpr std::size_t kStripes = 16;

/// Runtime kill switch (bench_e5's metrics-on vs metrics-off overhead
/// gate flips this); recording checks it with one relaxed load.
inline std::atomic<bool> g_recording{true};

/// Round-robin stripe assignment: stable per thread, spreads persistent
/// Executor workers across stripes.
inline std::size_t stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return id;
}

struct alignas(64) Slot {
  std::atomic<std::uint64_t> v{0};
};

}  // namespace detail

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (!detail::g_recording.load(std::memory_order_relaxed)) return;
    slots_[detail::stripe()].v.fetch_add(n, std::memory_order_relaxed);
  }
  /// Sum of all stripes. Relaxed per-stripe loads: each stripe is
  /// monotone, and same-thread re-reads respect coherence order, so
  /// successive totals read by one thread never decrease.
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t t = 0;
    for (const auto& s : slots_) t += s.v.load(std::memory_order_relaxed);
    return t;
  }
  void clear() noexcept {
    for (auto& s : slots_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::Slot, detail::kStripes> slots_{};
};

class Gauge {
 public:
  void set(std::uint64_t v) noexcept {
    if (!detail::g_recording.load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void record_max(std::uint64_t v) noexcept {
    if (!detail::g_recording.load(std::memory_order_relaxed)) return;
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void clear() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Histogram {
 public:
  void observe(std::uint64_t v) noexcept {
    if (!detail::g_recording.load(std::memory_order_relaxed)) return;
    Stripe& s = stripes_[detail::stripe()];
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(v, std::memory_order_relaxed);
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept {
    const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
    return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
  }
  void fill(HistogramValue& out) const noexcept {
    for (const Stripe& s : stripes_) {
      out.count += s.count.load(std::memory_order_relaxed);
      out.sum += s.sum.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b)
        out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
    }
  }
  void clear() noexcept {
    for (Stripe& s : stripes_) {
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };
  std::array<Stripe, detail::kStripes> stripes_{};
};

/// Look up (or register) a metric by name. The returned reference is
/// stable for the life of the process — call sites cache it in a
/// function-local static so the registry mutex is a one-time cost.
/// Names should be stable dotted-lowercase identifiers ("adapt.rounds").
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

/// Point-in-time copy of every registered metric, sorted by name.
[[nodiscard]] Snapshot snapshot();

/// Zero every registered metric (handles stay valid). Tests and benches
/// use this to read per-phase deltas from the process-cumulative registry.
void reset();

/// Runtime kill switch for the recording hot path. Disabling freezes
/// all values; it never unregisters metrics.
inline void set_enabled(bool on) noexcept {
  detail::g_recording.store(on, std::memory_order_relaxed);
}
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_recording.load(std::memory_order_relaxed);
}

#else  // !DIVSEC_OBS — recording surface compiles to nothing.

class Counter {
 public:
  void add(std::uint64_t = 1) noexcept {}
  [[nodiscard]] std::uint64_t total() const noexcept { return 0; }
  void clear() noexcept {}
};

class Gauge {
 public:
  void set(std::uint64_t) noexcept {}
  void record_max(std::uint64_t) noexcept {}
  [[nodiscard]] std::uint64_t value() const noexcept { return 0; }
  void clear() noexcept {}
};

class Histogram {
 public:
  void observe(std::uint64_t) noexcept {}
  void fill(HistogramValue&) const noexcept {}
  void clear() noexcept {}
};

[[nodiscard]] inline Counter& counter(std::string_view) noexcept {
  static Counter c;
  return c;
}
[[nodiscard]] inline Gauge& gauge(std::string_view) noexcept {
  static Gauge g;
  return g;
}
[[nodiscard]] inline Histogram& histogram(std::string_view) noexcept {
  static Histogram h;
  return h;
}

[[nodiscard]] inline Snapshot snapshot() { return {}; }
inline void reset() {}
inline void set_enabled(bool) noexcept {}
[[nodiscard]] inline bool enabled() noexcept { return false; }

#endif  // DIVSEC_OBS

}  // namespace divsec::obs
