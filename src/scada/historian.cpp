#include "scada/historian.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace divsec::scada {

Historian::Historian(std::size_t capacity_per_tag) : capacity_(capacity_per_tag) {
  if (capacity_ == 0) throw std::invalid_argument("Historian: capacity must be > 0");
}

const Historian::Series* Historian::find(const std::string& tag) const {
  for (const auto& s : series_)
    if (s.tag == tag) return &s;
  return nullptr;
}

Historian::Series& Historian::find_or_create(const std::string& tag) {
  for (auto& s : series_)
    if (s.tag == tag) return s;
  series_.push_back(Series{tag, {}});
  return series_.back();
}

void Historian::record(const std::string& tag, double time_s, double value) {
  auto& s = find_or_create(tag);
  if (!s.samples.empty() && time_s < s.samples.back().time_s)
    throw std::invalid_argument("Historian::record: time went backwards for " + tag);
  s.samples.push_back(Sample{time_s, value});
  if (s.samples.size() > capacity_) s.samples.pop_front();
}

std::vector<Sample> Historian::query(const std::string& tag, double since) const {
  std::vector<Sample> out;
  const Series* s = find(tag);
  if (!s) return out;
  for (const auto& smp : s->samples)
    if (smp.time_s >= since) out.push_back(smp);
  return out;
}

void AlarmEngine::add_rule(AlarmRule rule) {
  if (!(rule.high_limit >= rule.low_limit))
    throw std::invalid_argument("AlarmRule: high_limit < low_limit");
  if (rule.deadband < 0.0) throw std::invalid_argument("AlarmRule: negative deadband");
  rules_.push_back(RuleState{std::move(rule), false, false});
}

std::vector<Alarm> AlarmEngine::evaluate(const std::string& tag, double time_s,
                                         double value) {
  std::vector<Alarm> raised;
  for (auto& rs : rules_) {
    if (rs.rule.tag != tag) continue;
    if (!rs.high_active && value > rs.rule.high_limit) {
      rs.high_active = true;
      raised.push_back(Alarm{tag, time_s, value, "high"});
    } else if (rs.high_active && value < rs.rule.high_limit - rs.rule.deadband) {
      rs.high_active = false;
    }
    if (!rs.low_active && value < rs.rule.low_limit) {
      rs.low_active = true;
      raised.push_back(Alarm{tag, time_s, value, "low"});
    } else if (rs.low_active && value > rs.rule.low_limit + rs.rule.deadband) {
      rs.low_active = false;
    }
  }
  log_.insert(log_.end(), raised.begin(), raised.end());
  return raised;
}

AnomalyDetector::AnomalyDetector() : AnomalyDetector(Options{}) {}

AnomalyDetector::AnomalyDetector(Options opts) : opts_(opts) {
  if (!(opts_.window_s > 0.0))
    throw std::invalid_argument("AnomalyDetector: window must be > 0");
}

std::vector<Alarm> AnomalyDetector::inspect(const Historian& historian,
                                            const std::string& tag,
                                            double now_s) const {
  std::vector<Alarm> out;
  const auto samples = historian.query(tag, now_s - opts_.window_s);
  if (samples.size() < opts_.min_samples) return out;
  // Stuck-value (replay) test.
  double mean = 0.0;
  for (const auto& s : samples) mean += s.value;
  mean /= static_cast<double>(samples.size());
  double var = 0.0;
  for (const auto& s : samples) var += (s.value - mean) * (s.value - mean);
  var /= static_cast<double>(samples.size() - 1);
  if (var < opts_.min_expected_variance)
    out.push_back(Alarm{tag, now_s, samples.back().value, "stuck"});
  // Rate-of-change test over adjacent samples.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const double dt = samples[i].time_s - samples[i - 1].time_s;
    if (dt <= 0.0) continue;
    const double rate = std::fabs(samples[i].value - samples[i - 1].value) / dt;
    if (rate > opts_.max_rate_c_per_s) {
      out.push_back(Alarm{tag, samples[i].time_s, samples[i].value, "rate-of-change"});
      break;
    }
  }
  return out;
}

}  // namespace divsec::scada
