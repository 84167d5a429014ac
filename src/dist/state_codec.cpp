#include "dist/state_codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <concepts>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "dist/fnv.h"
#include "obs/metrics.h"
#include "util/file.h"
#include "util/json.h"

namespace divsec::dist {

namespace {

constexpr char kMagic[8] = {'D', 'V', 'S', 'W', 'E', 'E', 'P', 'S'};

/// Embedded-JSON-header cap: per-cell lists render inline only up to
/// this many cells, so the informational header stays O(1) on fleet
/// sweeps (the binary meta is authoritative either way).
constexpr std::size_t kJsonListCap = 64;

/// Sanity bound on any decoded array length. Run-length tokens can
/// expand far beyond the input size, so a forged count must be rejected
/// before it drives allocation — no legitimate sweep state comes close.
constexpr std::uint64_t kMaxArray = std::uint64_t{1} << 26;

// ---- framing primitives (fixed-width, little-endian, padding-free) --------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// LEB128 varint: 7 bits per byte, low bits first, high bit = continue.
void put_var(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

[[nodiscard]] std::uint64_t byteswap64(std::uint64_t v) {
  std::uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r = (r << 8) | (v & 0xFF);
    v >>= 8;
  }
  return r;
}

[[nodiscard]] constexpr std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

[[nodiscard]] constexpr std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// ---- the field walks -------------------------------------------------------
//
// Each state's field order is written down exactly once, in a `walk`
// overload below. Four visitors run the walks:
//   Packer       — the v4 wire format (encode_shard_state);
//   Reader       — decode, the only visitor that enforces Check rules;
//   JsonWriter   — accumulator_json;
//   WidthCounter — the fixed-width size (uncompressed_equivalent_bytes).
// Visitor primitives, with their packed coding:
//   uint(name, x, check)          integer: LEB128 varint
//   f64(name, x)                  double: "varf64", the varint of the
//                                 byte-swapped IEEE-754 bits (low mantissa
//                                 zeros of clean values drop out)
//   byte(name, x, max)            bool or enum: one byte, at most `max`
//   str(name, s)                  varint length, then the bytes
//   list(name, v, coding, check)  u64 array: varint length, then `coding`
//   records(name, v, check)       varint count, then each entry's walk
//   entries(name, v, n)           n entry walks; n comes from an earlier field
//   object(name, s)               a nested state's walk

/// Packed codings of a u64 array.
enum class Coding {
  kCounts,     // sparse counts (survival bins): a zero run is (0, length)
  kRuns,       // flat per-cell lists: (value, run length) pairs
  kAscending,  // strictly ascending ids: first value, then gaps
  kDeltas,     // monotone-ish sums (curves): zigzag deltas, then kCounts
};

/// Decode-side shape rules of one field. Only the Reader enforces them,
/// so encode stays exactly as lenient as validate_state.
struct Check {
  std::uint64_t lo = 0;  // the value (every element, for a list) lies in [lo, hi]
  std::uint64_t hi = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t zero_or = kAnyLength;  // the length must be 0 or this
  /// Each entry costs at least this many input bytes, so a count the
  /// remaining input cannot hold is corrupt. 0: run-coded (entries can
  /// expand past the input), bounded by kMaxArray instead.
  std::uint64_t entry_bytes = 0;

  static constexpr std::uint64_t kAnyLength =
      std::numeric_limits<std::uint64_t>::max();
};

template <class S, class T>
concept Of = std::same_as<std::remove_const_t<S>, T>;

template <class V>
void walk(V& v, Of<stats::OnlineStats::State> auto& s) {
  v.uint("n", s.n);
  v.f64("mean", s.mean);
  v.f64("m2", s.m2);
  v.f64("min", s.min);
  v.f64("max", s.max);
}

template <class V>
void walk(V& v, Of<stats::TDigest::Centroid> auto& c) {
  v.f64("mean", c.mean);
  v.uint("weight", c.weight);
}

template <class V>
void walk(V& v, Of<stats::TDigest::State> auto& s) {
  v.f64("compression", s.compression);
  v.f64("min", s.min);
  v.f64("max", s.max);
  v.records("centroids", s.centroids, {.entry_bytes = 2});
}

template <class V>
void walk(V& v, Of<stats::StreamingSurvival::State> auto& s) {
  v.f64("horizon", s.horizon);
  v.uint("n", s.n);
  v.uint("events", s.events);
  v.list("events_in", s.events_in, Coding::kCounts);
  v.list("censored_in", s.censored_in, Coding::kCounts);
}

template <class V>
void walk(V& v, Of<stats::CensoredTimeAccumulator::State> auto& s) {
  v.object("moments", s.moments);
  v.uint("censored", s.censored);
  v.object("times", s.times);
  v.object("survival", s.survival);
}

template <class V>
void walk(V& v, Of<core::RatioCurveAccumulator::State> auto& s) {
  v.f64("horizon", s.horizon);
  v.uint("scale", s.scale);
  v.uint("n", s.n);
  v.list("sums", s.sums, Coding::kDeltas);
}

template <class V>
void walk(V& v, Of<core::IndicatorAccumulator::State> auto& s) {
  v.f64("horizon", s.horizon);
  v.uint("n", s.n);
  v.uint("successes", s.successes);
  v.object("tta", s.tta);
  v.object("ttsf", s.ttsf);
  v.object("final_ratio", s.final_ratio);
  v.object("curve", s.curve);
}

template <class V>
void walk(V& v, Of<scenario::VariantPolicy> auto& p) {
  v.byte("policy", p,
         static_cast<std::uint8_t>(scenario::VariantPolicy::kBalancedRotation));
}

template <class V>
void walk(V& v, Of<SweepMeta> auto& m) {
  v.str("preset", m.preset);
  v.str("threat", m.threat);
  v.records("policies", m.policies, {.entry_bytes = 1});
  v.uint("seed", m.seed);
  v.uint("replications", m.replications);
  v.uint("replication_block", m.replication_block);
  v.uint("superblock", m.superblock);
  v.uint("survival_bins", m.survival_bins, {.lo = 1, .hi = stats::kMaxSurvivalBins});
  v.f64("horizon_hours", m.horizon_hours);
  // Per-cell lookups downstream index the policy list by cell.
  v.uint("cells", m.cells, {.lo = m.policies.size(), .hi = m.policies.size()});
  v.list("achieved", m.achieved, Coding::kRuns,
         {.lo = 1, .hi = m.replications, .zero_or = m.cells});
  v.uint("shard", m.shard);
  v.uint("shard_count", m.shard_count);
  v.byte("merged", m.merged, 1);
  v.f64("wall_ms", m.wall_ms);
  v.uint("threads", m.threads);
}

template <class V>
void walk(V& v, Of<CellCost> auto& c) {
  v.uint("replications", c.replications);
  v.f64("seconds", c.seconds);
}

template <class V>
void walk(V& v, Of<core::RoundLog> auto& r) {
  v.uint("round", r.round);
  v.uint("active_cells", r.active_cells);
  v.uint("tasks", r.tasks);
  v.uint("replications", r.replications);
  v.f64("wall_ms", r.wall_ms);
  v.f64("merge_ms", r.merge_ms);
}

constexpr const char* kSectionNames[] = {"meta", "tasks", "accumulators",
                                         "cost", "rounds"};
constexpr std::size_t kSectionCount = std::size(kSectionNames);

/// The payload sections of a shard state, in file order.
template <class V>
void walk_section(V& v, Of<ShardState> auto& s, std::size_t section) {
  switch (section) {
    case 0: v.object("meta", s.meta); break;
    case 1:
      v.list("tasks", s.tasks, Coding::kAscending, {.entry_bytes = 1});
      break;
    case 2: v.entries("accumulators", s.partials, s.tasks.size()); break;
    case 3:
      v.records("cost", s.cost.cells,
                {.zero_or = s.meta.cells, .entry_bytes = 2});
      break;
    default:
      v.records("rounds", s.rounds, {.entry_bytes = 6});
      v.list("cell_rounds", s.cell_rounds, Coding::kRuns,
             {.zero_or = s.meta.cells});
  }
}

// ---- visitors --------------------------------------------------------------

/// The v4 wire format.
struct Packer {
  std::string out;

  void uint(const char*, std::uint64_t x, Check = {}) { put_var(out, x); }
  void f64(const char*, double x) {
    put_var(out, byteswap64(std::bit_cast<std::uint64_t>(x)));
  }
  template <class T>
  void byte(const char*, T x, std::uint8_t) {
    out.push_back(static_cast<char>(x));
  }
  void str(const char*, const std::string& s) {
    put_var(out, s.size());
    out += s;
  }
  void list(const char*, const std::vector<std::uint64_t>& v, Coding coding,
            Check = {}) {
    put_var(out, v.size());
    switch (coding) {
      case Coding::kCounts: counts(v); break;
      case Coding::kRuns:
        for (std::size_t i = 0, j = 0; i < v.size(); i = j) {
          while (j < v.size() && v[j] == v[i]) ++j;
          put_var(out, v[i]);
          put_var(out, j - i);
        }
        break;
      case Coding::kAscending:
        for (std::size_t i = 0; i < v.size(); ++i)
          put_var(out, i == 0 ? v[i] : v[i] - v[i - 1]);
        break;
      case Coding::kDeltas: {
        std::vector<std::uint64_t> zz(v.size());
        for (std::size_t i = 0; i < v.size(); ++i)
          zz[i] = zigzag(static_cast<std::int64_t>(v[i] - (i ? v[i - 1] : 0)));
        counts(zz);
      }
    }
  }
  template <class T>
  void records(const char* name, const std::vector<T>& v, Check = {}) {
    put_var(out, v.size());
    entries(name, v, v.size());
  }
  template <class T>
  void entries(const char*, const std::vector<T>& v, std::size_t) {
    for (const T& e : v) walk(*this, e);
  }
  template <class S>
  void object(const char*, const S& s) {
    walk(*this, s);
  }

 private:
  void counts(const std::vector<std::uint64_t>& v) {
    for (std::size_t i = 0, j = 0; i < v.size(); i = j) {
      if (v[i] != 0) {
        put_var(out, v[j++]);
        continue;
      }
      while (j < v.size() && v[j] == 0) ++j;
      put_var(out, 0);
      put_var(out, j - i);
    }
  }
};

/// The fixed-width size of the same walk: 8 bytes per number (4 for
/// 32-bit fields), the way versions 1–3 encoded.
struct WidthCounter {
  std::size_t bytes = 0;

  template <class T>
  void uint(const char*, T, Check = {}) {
    bytes += sizeof(T);
  }
  void f64(const char*, double) { bytes += 8; }
  template <class T>
  void byte(const char*, T, std::uint8_t) {
    bytes += 1;
  }
  void str(const char*, const std::string& s) { bytes += 8 + s.size(); }
  void list(const char*, const std::vector<std::uint64_t>& v, Coding,
            Check = {}) {
    bytes += 8 * (1 + v.size());
  }
  template <class T>
  void records(const char* name, const std::vector<T>& v, Check = {}) {
    bytes += 8;
    entries(name, v, v.size());
  }
  template <class T>
  void entries(const char*, const std::vector<T>& v, std::size_t) {
    for (const T& e : v) walk(*this, e);
  }
  template <class S>
  void object(const char*, const S& s) {
    walk(*this, s);
  }
};

/// Exact JSON (doubles at %.17g): objects render as {"name": value, ...},
/// record entries positionally as [value, ...].
class JsonWriter {
 public:
  template <class S>
  static std::string render(const S& s) {
    JsonWriter j;
    j.nested('{', '}', false, [&] { walk(j, s); });
    return std::move(j.out_);
  }

  void uint(const char* name, std::uint64_t x, Check = {}) {
    key(name);
    out_ += std::to_string(x);
  }
  void f64(const char* name, double x) {
    key(name);
    out_ += util::json_number_exact(x);
  }
  void list(const char* name, const std::vector<std::uint64_t>& v, Coding,
            Check = {}) {
    key(name);
    nested('[', ']', true, [&] {
      for (const std::uint64_t x : v) uint("", x);
    });
  }
  template <class T>
  void records(const char* name, const std::vector<T>& v, Check = {}) {
    key(name);
    nested('[', ']', true, [&] {
      for (const T& e : v) {
        key("");
        nested('[', ']', true, [&] { walk(*this, e); });
      }
    });
  }
  template <class S>
  void object(const char* name, const S& s) {
    key(name);
    nested('{', '}', false, [&] { walk(*this, s); });
  }

 private:
  void key(const char* name) {
    if (!first_) out_ += ", ";
    first_ = false;
    if (positional_) return;
    out_ += '"';
    out_ += name;
    out_ += "\": ";
  }
  template <class Body>
  void nested(char open, char close, bool positional, Body&& body) {
    const bool outer = positional_;
    out_ += open;
    first_ = true;
    positional_ = positional;
    body();
    positional_ = outer;
    first_ = false;
    out_ += close;
  }

  std::string out_;
  bool first_ = true;
  bool positional_ = false;
};

/// Decode: the framing reads plus the walk primitives, which enforce each
/// field's Check and accept only the bytes Packer writes — minimal
/// varints, 0/1 flags, maximal runs — so encode(decode(bytes)) == bytes.
/// var/uint/f64 are forced inline: at -O2 GCC otherwise leaves them out
/// of line in the nested walks, and decode runs ~20% slower.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t offset() const noexcept { return off_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - off_;
  }

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(bytes_[off_++]);
  }

  [[nodiscard]] std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return v;
  }

  [[nodiscard, gnu::always_inline]] std::uint64_t var() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if (!(b & 0x80)) {
        // A zero final byte after the first is padding put_var never writes.
        if (b == 0 && shift > 0) fail("varint", "overlong");
        // The 10th byte may only carry the top bit of the 64 (64 = 9*7+1).
        if (shift == 63 && (b & 0x7E)) break;
        return v;
      }
    }
    fail("varint", "overflows 64 bits");
  }

  [[nodiscard]] std::string_view take(std::uint64_t n) {
    need(n);
    const std::string_view v = bytes_.substr(off_, static_cast<std::size_t>(n));
    off_ += static_cast<std::size_t>(n);
    return v;
  }

  template <std::unsigned_integral T>
  [[gnu::always_inline]] void uint(const char* name, T& x, Check c = {}) {
    x = static_cast<T>(
        in_range(name, var(), c.lo,
                 std::min<std::uint64_t>(c.hi, std::numeric_limits<T>::max())));
  }
  [[gnu::always_inline]] void f64(const char*, double& x) {
    x = std::bit_cast<double>(byteswap64(var()));
  }
  template <class T>
  void byte(const char* name, T& x, std::uint8_t max) {
    x = static_cast<T>(in_range(name, u8(), 0, max));
  }
  void str(const char*, std::string& s) { s = std::string(take(var())); }

  void list(const char* name, std::vector<std::uint64_t>& v, Coding coding,
            Check c = {}) {
    const std::uint64_t n = length(name, c);
    v.clear();
    v.reserve(static_cast<std::size_t>(n));
    switch (coding) {
      case Coding::kCounts: counts(name, v, n); break;
      case Coding::kRuns:
        while (v.size() < n) {
          const std::uint64_t x = var();
          const std::uint64_t run = var();
          if (run == 0 || run > n - v.size())
            fail(name, "bad run length");
          if (!v.empty() && v.back() == x)
            fail(name, "a value run is split in two");
          v.insert(v.end(), static_cast<std::size_t>(run), x);
        }
        break;
      case Coding::kAscending:
        for (std::uint64_t i = 0; i < n; ++i) {
          const std::uint64_t gap = var();
          if (i != 0 && (gap == 0 ||
                         gap > std::numeric_limits<std::uint64_t>::max() - v.back()))
            fail(name, "not strictly ascending");
          v.push_back(i == 0 ? gap : v.back() + gap);
        }
        break;
      case Coding::kDeltas: {
        counts(name, v, n);
        std::uint64_t prev = 0;
        for (std::uint64_t& x : v) {
          prev += static_cast<std::uint64_t>(unzigzag(x));
          x = prev;
        }
      }
    }
    for (const std::uint64_t x : v) in_range(name, x, c.lo, c.hi);
  }
  template <class T>
  void records(const char* name, std::vector<T>& v, Check c = {}) {
    entries(name, v, length(name, c));
  }
  template <class T>
  void entries(const char*, std::vector<T>& v, std::uint64_t n) {
    v.assign(static_cast<std::size_t>(n), T{});
    for (T& e : v) walk(*this, e);
  }
  template <class S>
  void object(const char*, S& s) {
    walk(*this, s);
  }

 private:
  void need(std::uint64_t n) const {
    if (remaining() < n) fail("input", "truncated");
  }

  /// Every rejection throws from here, out of line, so the hot reads
  /// stay small enough to inline.
  [[noreturn, gnu::cold, gnu::noinline]] static void fail(
      const char* name, const std::string& what) {
    throw std::runtime_error(std::string("shard state: ") + name + ": " + what);
  }

  static std::uint64_t in_range(const char* name, std::uint64_t x,
                                std::uint64_t lo, std::uint64_t hi) {
    if (x < lo || x > hi) out_of_range(name, x, lo, hi);
    return x;
  }
  [[noreturn, gnu::cold, gnu::noinline]] static void out_of_range(
      const char* name, std::uint64_t x, std::uint64_t lo, std::uint64_t hi) {
    fail(name, std::to_string(x) + " outside [" + std::to_string(lo) + ", " +
                   std::to_string(hi) + "]");
  }

  /// A list or record count, checked against its rule before it drives
  /// any allocation.
  std::uint64_t length(const char* name, const Check& c) {
    const std::uint64_t n = var();
    if (c.zero_or != Check::kAnyLength && n != 0 && n != c.zero_or)
      fail(name, std::to_string(n) + " entries, want 0 or " +
                     std::to_string(c.zero_or));
    if (n > (c.entry_bytes ? remaining() / c.entry_bytes : kMaxArray))
      fail(name, "length " + std::to_string(n) + " exceeds the input");
    return n;
  }

  void counts(const char* name, std::vector<std::uint64_t>& v,
              std::uint64_t n) {
    bool after_zero_run = false;
    while (v.size() < n) {
      const std::uint64_t x = var();
      if (x != 0) {
        v.push_back(x);
        after_zero_run = false;
        continue;
      }
      const std::uint64_t run = var();
      if (run == 0 || run > n - v.size()) fail(name, "bad zero-run length");
      if (after_zero_run) fail(name, "a zero run is split in two");
      v.insert(v.end(), static_cast<std::size_t>(run), 0);
      after_zero_run = true;
    }
  }

  std::string_view bytes_;
  std::size_t off_ = 0;
};

void validate_state(const ShardState& state) {
  if (state.partials.size() != state.tasks.size())
    throw std::invalid_argument(
        "encode_shard_state: partial count != task list size");
  for (std::size_t t = 1; t < state.tasks.size(); ++t)
    if (state.tasks[t] <= state.tasks[t - 1])
      throw std::invalid_argument(
          "encode_shard_state: task list must be strictly ascending");
  if (!state.cost.cells.empty() && state.cost.cells.size() != state.meta.cells)
    throw std::invalid_argument(
        "encode_shard_state: cost model cell count != sweep cell count");
  if (!state.meta.achieved.empty()) {
    if (state.meta.achieved.size() != state.meta.cells)
      throw std::invalid_argument(
          "encode_shard_state: achieved count != sweep cell count");
    for (const std::uint64_t a : state.meta.achieved)
      if (a == 0 || a > state.meta.replications)
        throw std::invalid_argument(
            "encode_shard_state: achieved replications outside (0, budget]");
  }
  if (!state.cell_rounds.empty() &&
      state.cell_rounds.size() != state.meta.cells)
    throw std::invalid_argument(
        "encode_shard_state: termination-round count != sweep cell count");
}

/// Codec telemetry: per-call totals plus per-section byte/time
/// breakdowns — the live counterpart of state_section_sizes.
struct CodecCounters {
  obs::Counter& encode_calls = obs::counter("codec.encode.calls");
  obs::Counter& encode_bytes = obs::counter("codec.encode.bytes");
  obs::Counter& encode_ns = obs::counter("codec.encode.ns");
  obs::Counter& decode_calls = obs::counter("codec.decode.calls");
  obs::Counter& decode_bytes = obs::counter("codec.decode.bytes");
  obs::Counter& decode_ns = obs::counter("codec.decode.ns");
  std::array<obs::Counter*, kSectionCount> encode_section_bytes{};
  std::array<obs::Counter*, kSectionCount> encode_section_ns{};
  std::array<obs::Counter*, kSectionCount> decode_section_bytes{};
  std::array<obs::Counter*, kSectionCount> decode_section_ns{};

  CodecCounters() {
    for (std::size_t s = 0; s < kSectionCount; ++s) {
      const std::string name = kSectionNames[s];
      encode_section_bytes[s] =
          &obs::counter("codec.encode." + name + ".bytes");
      encode_section_ns[s] = &obs::counter("codec.encode." + name + ".ns");
      decode_section_bytes[s] =
          &obs::counter("codec.decode." + name + ".bytes");
      decode_section_ns[s] = &obs::counter("codec.decode." + name + ".ns");
    }
  }

  static const CodecCounters& instance() {
    static const CodecCounters counters;
    return counters;
  }
};

std::uint64_t codec_elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

std::uint64_t sweep_fingerprint(const SweepMeta& meta) {
  std::uint64_t h = kFnvOffsetBasis;
  fnv1a_mix(h, kStateFormatVersion);
  fnv1a_mix(h, meta.preset);
  fnv1a_mix(h, meta.threat);
  fnv1a_mix(h, static_cast<std::uint64_t>(meta.policies.size()));
  for (const auto p : meta.policies)
    fnv1a_mix(h, static_cast<std::uint64_t>(p));
  fnv1a_mix(h, meta.seed);
  fnv1a_mix(h, meta.replications);
  fnv1a_mix(h, meta.replication_block);
  fnv1a_mix(h, meta.superblock);
  fnv1a_mix(h, meta.survival_bins);
  fnv1a_mix(h, std::bit_cast<std::uint64_t>(meta.horizon_hours));
  fnv1a_mix(h, meta.cells);
  // The achieved list is identity: an adaptive merge/replay must agree on
  // where every cell stopped, and a fixed-budget state (empty list) must
  // never merge with an adaptive one.
  fnv1a_mix(h, static_cast<std::uint64_t>(meta.achieved.size()));
  for (const std::uint64_t a : meta.achieved) fnv1a_mix(h, a);
  return h;
}

std::string meta_json(const SweepMeta& meta) {
  using util::json_number_exact;
  using util::json_string;
  std::string out = "{";
  out += "\"format\": \"divsec-sweep-state\"";
  out += ", \"version\": " + std::to_string(kStateFormatVersion);
  out += ", \"preset\": " + json_string(meta.preset);
  if (meta.policies.size() <= kJsonListCap) {
    std::string policies;
    for (std::size_t i = 0; i < meta.policies.size(); ++i) {
      if (i) policies += ", ";
      policies += json_string(scenario::to_string(meta.policies[i]));
    }
    out += ", \"policies\": [" + policies + "]";
  } else {
    // Elided at fleet scale: the header identifies the file; the binary
    // meta carries the full list.
    out += ", \"policy_count\": " + std::to_string(meta.policies.size());
  }
  out += ", \"threat\": " + json_string(meta.threat);
  out += ", \"seed\": " + std::to_string(meta.seed);
  out += ", \"replications\": " + std::to_string(meta.replications);
  out += ", \"replication_block\": " + std::to_string(meta.replication_block);
  out += ", \"superblock\": " + std::to_string(meta.superblock);
  out += ", \"survival_bins\": " + std::to_string(meta.survival_bins);
  out += ", \"horizon_hours\": " + json_number_exact(meta.horizon_hours);
  out += ", \"cells\": " + std::to_string(meta.cells);
  out += std::string(", \"adaptive\": ") +
         (meta.achieved.empty() ? "false" : "true");
  if (!meta.achieved.empty()) {
    if (meta.achieved.size() <= kJsonListCap) {
      out += ", \"achieved\": [";
      for (std::size_t i = 0; i < meta.achieved.size(); ++i) {
        if (i) out += ", ";
        out += std::to_string(meta.achieved[i]);
      }
      out += "]";
    } else {
      std::uint64_t total = 0;
      for (const std::uint64_t a : meta.achieved) total += a;
      out += ", \"achieved_total\": " + std::to_string(total);
    }
  }
  out += ", \"shard\": " + std::to_string(meta.shard);
  out += ", \"shard_count\": " + std::to_string(meta.shard_count);
  out += std::string(", \"merged\": ") + (meta.merged ? "true" : "false");
  out += ", \"wall_ms\": " + util::json_number(meta.wall_ms);
  out += ", \"threads\": " + std::to_string(meta.threads);
  out += ", \"fingerprint\": \"" + fingerprint_hex(sweep_fingerprint(meta));
  out += "\", \"cost_fingerprint\": \"" + fingerprint_hex(cost_fingerprint(meta));
  out += "\"}";
  return out;
}

std::string encode_shard_state(const ShardState& state) {
  const CodecCounters& counters = CodecCounters::instance();
  const auto started = std::chrono::steady_clock::now();
  validate_state(state);
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kStateFormatVersion);
  const std::string header = meta_json(state.meta);
  put_u32(out, static_cast<std::uint32_t>(header.size()));
  out += header;
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    const auto section_started = std::chrono::steady_clock::now();
    Packer w;
    walk_section(w, state, s);
    put_var(out, w.out.size());
    out += w.out;
    counters.encode_section_bytes[s]->add(w.out.size());
    counters.encode_section_ns[s]->add(codec_elapsed_ns(section_started));
  }
  put_u64(out, fnv1a(out));
  counters.encode_calls.add(1);
  counters.encode_bytes.add(out.size());
  counters.encode_ns.add(codec_elapsed_ns(started));
  return out;
}

std::size_t uncompressed_equivalent_bytes(const ShardState& state) {
  validate_state(state);
  // Same framing, same JSON header, same content and field sequence —
  // every number just costs its fixed width, with u32 section length
  // prefixes.
  std::size_t total = sizeof(kMagic) + 4;
  total += 4 + meta_json(state.meta).size();
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    WidthCounter w;
    walk_section(w, state, s);
    total += 4 + w.bytes;
  }
  return total + 8;  // trailing checksum
}

namespace {

/// Shared framing validation of decode_shard_state and
/// state_section_sizes: magic, checksum-before-anything, version (with
/// the regenerate-shards hint — old formats are never migrated, shards
/// are cheap to reproduce by construction). Returns a reader positioned
/// after the magic/version/JSON header, covering everything but the
/// trailing checksum.
Reader open_state(std::string_view bytes) {
  if (bytes.substr(0, 12) == "divsec-tasks")
    throw std::runtime_error(
        "shard state: this is a task-plan file (divsec_sweep plan output), "
        "not a shard state — pass it via --tasks instead");
  if (bytes.size() < sizeof(kMagic) + 4 + 8 ||
      bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0)
    throw std::runtime_error("shard state: not a divsec sweep state file");
  const std::uint64_t stored =
      Reader(bytes.substr(bytes.size() - 8)).u64();
  if (fnv1a(bytes.substr(0, bytes.size() - 8)) != stored)
    throw std::runtime_error("shard state: checksum mismatch (file damaged)");

  Reader r(bytes.substr(0, bytes.size() - 8));
  (void)r.take(sizeof(kMagic));
  const std::uint32_t version = r.u32();
  if (version != kStateFormatVersion)
    throw std::runtime_error(
        "shard state: unsupported format version " + std::to_string(version) +
        " (this build reads v" + std::to_string(kStateFormatVersion) +
        ") — regenerate shards with this build's divsec_sweep");
  (void)r.take(r.u32());  // the informational JSON header; binary meta is authoritative
  return r;
}

}  // namespace

ShardState decode_shard_state(std::string_view bytes) {
  const CodecCounters& counters = CodecCounters::instance();
  const auto started = std::chrono::steady_clock::now();
  Reader r = open_state(bytes);
  ShardState state;
  for (std::size_t s = 0; s < kSectionCount; ++s) {
    // Bytes include the varint length prefix (the on-wire footprint).
    const std::size_t before = r.remaining();
    const auto section_started = std::chrono::steady_clock::now();
    Reader sr(r.take(r.var()));
    walk_section(sr, state, s);
    if (sr.remaining() != 0)
      throw std::runtime_error("shard state: section length mismatch");
    counters.decode_section_bytes[s]->add(before - r.remaining());
    counters.decode_section_ns[s]->add(codec_elapsed_ns(section_started));
  }
  if (r.remaining() != 0)
    throw std::runtime_error("shard state: trailing bytes after payload");
  // A sweep never runs without a positive horizon (make_meta), so a state
  // recording another one is corrupt, not a default.
  if (!(std::isfinite(state.meta.horizon_hours) && state.meta.horizon_hours > 0.0))
    throw std::runtime_error("shard state: horizon_hours: must be finite and > 0");
  counters.decode_calls.add(1);
  counters.decode_bytes.add(bytes.size());
  counters.decode_ns.add(codec_elapsed_ns(started));
  return state;
}

StateSectionSizes state_section_sizes(std::string_view bytes) {
  Reader r = open_state(bytes);
  StateSectionSizes sizes;
  sizes.header = r.offset();
  std::size_t* const slots[] = {&sizes.meta, &sizes.tasks,
                                &sizes.accumulators, &sizes.cost,
                                &sizes.rounds};
  for (std::size_t* slot : slots) {
    const std::size_t start = r.offset();
    (void)r.take(r.var());
    *slot = r.offset() - start;
  }
  if (r.remaining() != 0)
    throw std::runtime_error("shard state: trailing bytes after payload");
  return sizes;
}

std::string accumulator_json(const core::IndicatorAccumulator::State& state) {
  return JsonWriter::render(state);
}

void write_shard_state(const std::string& path, const ShardState& state) {
  util::write_file(path, encode_shard_state(state));
}

ShardState read_shard_state(const std::string& path) {
  return decode_shard_state(util::read_file(path));
}

}  // namespace divsec::dist
