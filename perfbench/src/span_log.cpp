#include "span_log.h"

#include <stdexcept>
#include <utility>

#include "util/json.h"

namespace perfbench {

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

std::uint64_t SpanLog::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::size_t SpanLog::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? kNoParent : open_.back();
  const std::size_t id = spans_.size();
  spans_.push_back(std::move(s));
  open_.push_back(id);
  spans_[id].begin_ns = now_ns();
  return id;
}

std::uint64_t SpanLog::close(std::size_t id) {
  const std::uint64_t end = now_ns();
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("SpanLog: spans must close innermost first");
  open_.pop_back();
  spans_[id].end_ns = end;
  return end - spans_[id].begin_ns;
}

std::string SpanLog::chrome_json() const {
  using divsec::util::json_number;
  using divsec::util::json_string;
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "  {\"name\": " + json_string(s.name) +
           ", \"cat\": \"perfbench\", \"ph\": \"X\", \"ts\": " +
           json_number(static_cast<double>(s.begin_ns) / 1000.0) +
           ", \"dur\": " +
           json_number(static_cast<double>(s.end_ns - s.begin_ns) / 1000.0) +
           ", \"pid\": 1, \"tid\": 1, \"args\": {\"id\": " + std::to_string(i) +
           ", \"parent\": " +
           (s.parent == kNoParent ? std::string("null")
                                  : std::to_string(s.parent)) +
           "}}";
  }
  out += spans_.empty() ? "" : "\n";
  out += "], \"displayTimeUnit\": \"ms\"}\n";
  return out;
}

std::map<std::string, SpanLog::Row> SpanLog::by_name() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.begin_ns;
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::uint64_t dur = spans_[i].end_ns - spans_[i].begin_ns;
    Row& r = rows[spans_[i].name];
    ++r.calls;
    r.total_ns += dur;
    r.self_ns += dur - child_ns[i];
  }
  return rows;
}

std::map<std::string, SpanLog::Row> SpanLog::by_layer() const {
  std::map<std::string, Row> layers;
  for (const auto& [name, row] : by_name()) {
    const std::size_t dot = name.find('.');
    if (dot == std::string::npos) continue;
    Row& l = layers[name.substr(0, dot)];
    l.calls += row.calls;
    l.total_ns += row.total_ns;
    l.self_ns += row.self_ns;
  }
  return layers;
}

}  // namespace perfbench
