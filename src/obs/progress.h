// obs/progress.h — throttled stderr heartbeat for long-running sweeps.
//
// Deliberately independent of the DIVSEC_OBS compile gate: progress is
// an operator affordance, not telemetry, and a DIVSEC_OBS=0 build of
// `divsec_sweep adapt` should still say what round it is on. Output
// goes to stderr only, so it can never perturb CSV/state bytes; the
// DIVSEC_PROGRESS=0 environment variable silences everything (CI byte
// -diff legs and golden-output tests set it defensively, though stdout
// capture alone is already sufficient).
#pragma once

#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace divsec::obs {

/// False when DIVSEC_PROGRESS=0 is set in the environment.
inline bool progress_enabled() noexcept {
  static const bool on = [] {
    const char* env = std::getenv("DIVSEC_PROGRESS");
    return !(env != nullptr && env[0] == '0' && env[1] == '\0');
  }();
  return on;
}

/// One unconditional (modulo DIVSEC_PROGRESS=0) stderr line with the
/// "divsec: " prefix. Per-round summaries (adaptive rounds) use
/// this; per-unit spam belongs in a Heartbeat.
inline void progress_line(const char* fmt, ...) {
  if (!progress_enabled()) return;
  std::fputs("divsec: ", stderr);
  std::va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
}

/// Throttled progress meter over a known unit total (replications,
/// cells). The first line only appears after `min_interval_s`, so
/// short runs — unit tests, small shards — stay completely silent.
class Heartbeat {
 public:
  Heartbeat(const char* label, std::uint64_t total_units,
            double min_interval_s = 0.5)
      : label_(label),
        total_(total_units),
        interval_(min_interval_s),
        start_(Clock::now()),
        last_(start_) {}

  void tick(std::uint64_t done_units) {
    if (!progress_enabled()) return;
    const Clock::time_point now = Clock::now();
    if (seconds(now - last_) < interval_) return;
    const double elapsed = seconds(now - start_);
    const double rate =
        elapsed > 0.0 ? static_cast<double>(done_units) / elapsed : 0.0;
    const double pct =
        total_ > 0 ? 100.0 * static_cast<double>(done_units) /
                         static_cast<double>(total_)
                   : 0.0;
    if (rate > 0.0 && total_ > done_units) {
      const double eta = static_cast<double>(total_ - done_units) / rate;
      std::fprintf(stderr,
                   "divsec: [%s] %" PRIu64 "/%" PRIu64
                   " (%.0f%%)  %.0f/s  ETA %.0fs\n",
                   label_, done_units, total_, pct, rate, eta);
    } else {
      std::fprintf(stderr,
                   "divsec: [%s] %" PRIu64 "/%" PRIu64 " (%.0f%%)  %.0f/s\n",
                   label_, done_units, total_, pct, rate);
    }
    last_ = now;
    printed_ = true;
  }

  /// Completion line — only if at least one tick printed, so silent
  /// runs stay silent.
  void finish(std::uint64_t done_units) {
    if (!printed_) return;
    std::fprintf(stderr,
                 "divsec: [%s] done: %" PRIu64 " units in %.1fs\n", label_,
                 done_units, seconds(Clock::now() - start_));
  }

 private:
  using Clock = std::chrono::steady_clock;
  static double seconds(Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::duration<double>>(d).count();
  }

  const char* label_;
  std::uint64_t total_;
  double interval_;
  Clock::time_point start_;
  Clock::time_point last_;
  bool printed_ = false;
};

}  // namespace divsec::obs
