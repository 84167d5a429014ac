#include "obs/trace.h"

#include "util/file.h"
#include "util/json.h"

#if DIVSEC_OBS

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

namespace divsec::obs {

namespace {

using Clock = std::chrono::steady_clock;

struct TraceEvent {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  std::uint32_t tid;
};

struct ThreadBuf {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::atomic<bool> enabled{false};
  Clock::time_point epoch{};
  std::mutex mu;  // guards bufs registration and flush
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
};

/// Leaked for the same reason as the metrics registry: spans on
/// static-lifetime worker threads may close during shutdown.
TraceState& state() {
  static TraceState* s = new TraceState;
  return *s;
}

ThreadBuf& local_buf() {
  thread_local const std::shared_ptr<ThreadBuf> buf = [] {
    auto b = std::make_shared<ThreadBuf>();
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    b->tid = static_cast<std::uint32_t>(s.bufs.size() + 1);
    s.bufs.push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

bool trace_enabled() noexcept {
  return state().enabled.load(std::memory_order_acquire);
}

std::uint64_t trace_now_ns() noexcept {
  const auto d = Clock::now() - state().epoch;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

void trace_start() {
  TraceState& s = state();
  if (s.enabled.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& buf : s.bufs) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      buf->events.clear();
    }
  }
  s.epoch = Clock::now();
  // Release pairs with the acquire in trace_enabled so recorders see
  // the fresh epoch.
  s.enabled.store(true, std::memory_order_release);
}

void trace_record(const char* name, std::uint64_t begin_ns,
                  std::uint64_t end_ns) noexcept {
  // Re-checked so spans closing after trace_stop drained the buffers
  // don't accumulate into a dead session.
  if (!trace_enabled()) return;
  ThreadBuf& buf = local_buf();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.events.push_back({name, begin_ns, end_ns, buf.tid});
}

std::string trace_json() {
  TraceState& s = state();
  s.enabled.store(false, std::memory_order_release);
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& buf : s.bufs) {
      std::lock_guard<std::mutex> buf_lock(buf->mu);
      events.insert(events.end(), buf->events.begin(), buf->events.end());
      buf->events.clear();
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.begin_ns < b.begin_ns;
                   });
  std::string out;
  out.reserve(64 + events.size() * 96);
  out += "{\"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"name\": " + util::json_string(e.name) +
           ", \"cat\": \"divsec\", \"ph\": \"X\", \"ts\": " +
           util::json_number(static_cast<double>(e.begin_ns) / 1000.0) +
           ", \"dur\": " +
           util::json_number(static_cast<double>(e.end_ns - e.begin_ns) /
                             1000.0) +
           ", \"pid\": 1, \"tid\": " + std::to_string(e.tid) + "}";
  }
  out += events.empty() ? "" : "\n";
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

void trace_stop(const std::string& path) {
  util::write_file(path, trace_json());
}

}  // namespace divsec::obs

#else  // !DIVSEC_OBS

namespace divsec::obs {

void trace_stop(const std::string& path) {
  util::write_file(path, trace_json());
}

}  // namespace divsec::obs

#endif  // DIVSEC_OBS
