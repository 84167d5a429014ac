// span_log.h — the benchmark's own in-memory span recorder.
//
// The traced run wraps every call it makes into a divsec layer in a span
// (name, start, end, parent). Span names are "<layer>.<call>"; the layer
// is the text before the first dot. Spans stay in memory and are written
// once, at exit, as Chrome trace-event JSON in the same shape obs/trace.h
// writes (Perfetto loads it), with the parent recorded in "args".
//
// A span's self time is its duration minus the time its direct children
// cover. The ledger groups self time by span name and by layer; the root
// span's own self time is what no layer claimed (bookkeeping between
// calls) — the unattributed share.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::size_t parent = kNoParent;
  };

  SpanLog();

  /// Open a span as a child of the innermost open span; returns its id.
  std::size_t open(std::string name);
  /// Close the innermost open span (must be `id`); returns its duration.
  std::uint64_t close(std::size_t id);

  /// Time one call in a span; returns the span's duration in ns.
  template <typename F>
  std::uint64_t time(std::string name, const F& f) {
    const std::size_t id = open(std::move(name));
    f();
    return close(id);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}), timestamps in µs
  /// since the log was created.
  [[nodiscard]] std::string chrome_json() const;

  struct Row {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  /// Self time and calls per span name (the root included under its own
  /// name) and per layer (text before the first dot; names without a dot
  /// are not layers).
  [[nodiscard]] std::map<std::string, Row> by_name() const;
  [[nodiscard]] std::map<std::string, Row> by_layer() const;

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
