// json.h — the one place JSON text is produced.
//
// Every JSON artifact the project writes — the BENCH_*.json perf
// trajectory records, the distributed-sweep state-file headers, and the
// merged-summary exports — goes through these helpers, so string
// escaping and non-finite-number handling exist exactly once. Emission
// only: the JSON the project reads back (metrics sidecars, --family-json
// specs) goes through util::JsonReader in util/strict_text.h, a strict
// no-escapes subset, and the binary state codec (dist/state_codec.h)
// owns parsing of its own format.
#pragma once

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

namespace divsec::util {

/// JSON string escaping: quotes, backslashes, and control characters.
/// Names come from free-form code (bench labels, preset names) — an
/// unescaped quote or newline would silently corrupt a whole artifact.
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

/// Quoted, escaped JSON string literal.
inline std::string json_string(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

/// JSON number or null: printf's "%f" renders non-finite doubles as
/// nan/inf, which no JSON parser accepts — a single timer glitch or 0/0
/// speedup used to invalidate a whole artifact.
inline std::string json_number(double v, int precision = 3) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// JSON number with full round-trip precision (%.17g reproduces the
/// exact IEEE-754 double), or null for non-finite values. Used by the
/// sweep summary/state writers, where values are measurements rather
/// than timings and must not lose bits in transit.
inline std::string json_number_exact(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One machine-readable timing record for the perf trajectory: clocks
/// only (exact counts and sizes are ctest cases). `speedup` is a ratio
/// of two clocks the writer defines (1.0 for standalone timings).
/// `wall_floor_ms` is an optional per-metric noise floor: the gate skips
/// the wall comparison while the baseline wall sits below it — set it on
/// sub-millisecond metrics (per-round merge times) where the global 5 ms
/// CLI floor would be wrong in the other direction. NaN = omitted.
struct BenchRecord {
  std::string name;
  double wall_ms = 0.0;
  int threads = 1;
  double speedup = 1.0;
  double wall_floor_ms = std::numeric_limits<double>::quiet_NaN();
};

/// Write records as a JSON array to `path` (BENCH_*.json convention), so
/// CI can track wall time and parallel speedup across commits. Emits
/// nothing on I/O failure: writers must not fail on read-only filesystems.
inline void write_bench_json(const std::string& path,
                             const std::vector<BenchRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    const std::string floor =
        std::isfinite(r.wall_floor_ms)
            ? ", \"wall_floor_ms\": " + json_number(r.wall_floor_ms)
            : "";
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"wall_ms\": %s, \"threads\": %d, "
                 "\"speedup\": %s%s}%s\n",
                 json_escape(r.name).c_str(), json_number(r.wall_ms).c_str(),
                 r.threads, json_number(r.speedup).c_str(), floor.c_str(),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

}  // namespace divsec::util
