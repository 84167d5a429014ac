#include "core/indicator_accumulator.h"

#include <stdexcept>
#include <utility>

namespace divsec::core {

IndicatorAccumulator::IndicatorAccumulator(double horizon_hours,
                                           std::size_t survival_bins)
    : horizon_(horizon_hours),
      tta_(horizon_hours, survival_bins),
      ttsf_(horizon_hours, survival_bins),
      curve_(horizon_hours, survival_bins) {}

IndicatorAccumulator::State IndicatorAccumulator::state() const {
  return {horizon_,      n_,            successes_,          tta_.state(),
          ttsf_.state(), final_ratio_.state(), curve_.state()};
}

IndicatorAccumulator IndicatorAccumulator::from_state(const State& s) {
  if (s.successes > s.n)
    throw std::invalid_argument(
        "IndicatorAccumulator::from_state: successes > replications");
  IndicatorAccumulator out;
  out.horizon_ = s.horizon;
  out.n_ = s.n;
  out.successes_ = s.successes;
  out.tta_ = stats::CensoredTimeAccumulator::from_state(s.tta);
  out.ttsf_ = stats::CensoredTimeAccumulator::from_state(s.ttsf);
  out.final_ratio_ = stats::OnlineStats::from_state(s.final_ratio);
  out.curve_ = RatioCurveAccumulator::from_state(s.curve);
  return out;
}

void IndicatorAccumulator::add(const IndicatorSample& sample) {
  ++n_;
  if (sample.attack_succeeded) ++successes_;
  tta_.add(sample.tta, sample.tta_censored);
  ttsf_.add(sample.ttsf, sample.ttsf_censored);
  final_ratio_.add(sample.final_ratio);
  // SAN samples carry no trajectory — the curve accumulator simply
  // stays empty for that engine.
  if (!sample.ratio_counts.empty())
    curve_.add(sample.ratio_counts, sample.ratio_scale);
}

void IndicatorAccumulator::merge(const IndicatorAccumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0 && horizon_ == 0.0) {
    *this = other;
    return;
  }
  n_ += other.n_;
  successes_ += other.successes_;
  tta_.merge(other.tta_);
  ttsf_.merge(other.ttsf_);
  final_ratio_.merge(other.final_ratio_);
  curve_.merge(other.curve_);
}

void IndicatorAccumulator::merge(IndicatorAccumulator&& other) {
  if (other.n_ != 0 && n_ == 0 && horizon_ == 0.0)
    *this = std::move(other);
  else
    merge(other);
}

bool IndicatorAccumulator::precision_reached(const sim::StoppingRule& rule) const {
  sim::StoppingRule time_rule = rule;
  time_rule.absolute_precision = rule.absolute_precision * horizon_;
  return sim::precision_reached(tta_.moments(), time_rule) &&
         sim::precision_reached(ttsf_.moments(), time_rule) &&
         sim::precision_reached(final_ratio_, rule);
}

IndicatorSummary IndicatorAccumulator::summarize() const {
  IndicatorSummary s;
  s.replications = n_;
  s.horizon_hours = horizon_;
  s.tta = tta_.moments();
  s.tta_censored = tta_.censored();
  s.ttsf = ttsf_.moments();
  s.ttsf_censored = ttsf_.censored();
  s.final_ratio = final_ratio_;
  s.successes = successes_;
  s.tta_event = tta_.summarize();
  s.ttsf_event = ttsf_.summarize();
  s.ratio_curve = curve_.mean_curve();
  return s;
}

std::vector<IndicatorSummary> summarize_cells(
    std::span<const IndicatorAccumulator> acc,
    std::span<const std::uint64_t> achieved, std::size_t replications,
    double horizon_hours) {
  std::vector<IndicatorSummary> out(acc.size());
  for (std::size_t c = 0; c < acc.size(); ++c) {
    out[c] = acc[c].summarize();
    out[c].replications =
        achieved.empty() ? replications : static_cast<std::size_t>(achieved[c]);
    out[c].horizon_hours = horizon_hours;
  }
  return out;
}

}  // namespace divsec::core
