// historian.h — time-series archive, alarm engine, anomaly detection.
//
// The monitoring half of the SCADA system: the historian stores tagged
// samples from the master's polls; the alarm engine raises threshold
// alarms with deadband; the anomaly detector implements the two checks
// that matter against Stuxnet-style spoofing — a stuck-value test (a
// replayed signal has suspiciously low variance) and a rate-of-change
// test (a destabilized plant moves faster than physics should allow).
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

namespace divsec::scada {

struct Sample {
  double time_s = 0.0;
  double value = 0.0;
};

/// Ring-buffer archive per tag.
class Historian {
 public:
  explicit Historian(std::size_t capacity_per_tag = 4096);

  void record(const std::string& tag, double time_s, double value);

  /// Samples with time >= since, oldest first.
  [[nodiscard]] std::vector<Sample> query(const std::string& tag, double since) const;

 private:
  struct Series {
    std::string tag;
    std::deque<Sample> samples;
  };
  [[nodiscard]] const Series* find(const std::string& tag) const;
  Series& find_or_create(const std::string& tag);

  std::size_t capacity_;
  std::vector<Series> series_;
};

struct AlarmRule {
  std::string tag;
  double high_limit = 0.0;
  double low_limit = 0.0;
  /// Hysteresis band: an alarm re-arms only after the value returns this
  /// far inside the limit.
  double deadband = 0.5;
};

struct Alarm {
  std::string tag;
  double time_s = 0.0;
  double value = 0.0;
  std::string reason;  // "high", "low", "stuck", "rate-of-change"
};

class AlarmEngine {
 public:
  void add_rule(AlarmRule rule);

  /// Feed one sample; returns the alarms it raised (possibly none).
  std::vector<Alarm> evaluate(const std::string& tag, double time_s, double value);

  [[nodiscard]] const std::vector<Alarm>& alarm_log() const noexcept { return log_; }

 private:
  struct RuleState {
    AlarmRule rule;
    bool high_active = false;
    bool low_active = false;
  };
  std::vector<RuleState> rules_;
  std::vector<Alarm> log_;
};

/// Spoof-resistant plausibility checks over historian windows.
class AnomalyDetector {
 public:
  struct Options {
    double window_s = 600.0;
    /// A live thermal signal jitters; variance below this over a full
    /// window flags a replay ("stuck" test).
    double min_expected_variance = 1e-4;
    /// Physical bound on |dT/dt| (C per second); faster implies sensor or
    /// data tampering. Must sit well above sensor noise over one poll
    /// interval or it false-positives on healthy plants.
    double max_rate_c_per_s = 0.5;
    std::size_t min_samples = 20;
  };
  AnomalyDetector();  // default options
  explicit AnomalyDetector(Options opts);

  /// Inspect a tag's recent window; returns raised anomalies.
  [[nodiscard]] std::vector<Alarm> inspect(const Historian& historian,
                                           const std::string& tag,
                                           double now_s) const;

 private:
  Options opts_;
};

}  // namespace divsec::scada
