// bench_util.h — shared table-printing helpers for the experiment benches.
//
// Every bench binary reproduces one experiment from DESIGN.md §4: it
// first prints the paper-style table/series to stdout, then runs
// google-benchmark timings of the underlying computation. Keeping the
// two phases separate makes `./bench_eX` output directly comparable to
// the paper's reported shape while still profiling the library.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "util/json.h"

namespace divsec::bench {

// JSON emission lives in util/json.h (shared with the distributed-sweep
// state/summary writers); the aliases keep existing bench code spelled
// the same.
using util::BenchRecord;
using util::json_escape;
using util::json_number;
using util::write_bench_json;

/// Print a separator + header for one experiment section.
inline void section(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// Fixed-width row helpers (printf-style formatting keeps the benches
/// dependency-free and grep-friendly).
inline void row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int precision = 4) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

inline std::string fmt_int(long long v) { return std::to_string(v); }

}  // namespace divsec::bench
