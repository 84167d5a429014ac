#include "stats/survival.h"

#include <algorithm>
#include <stdexcept>

namespace divsec::stats {

KaplanMeier::KaplanMeier(std::vector<SurvivalObservation> observations) {
  if (observations.empty())
    throw std::invalid_argument("KaplanMeier: empty sample");
  for (const auto& o : observations)
    if (o.time < 0.0) throw std::invalid_argument("KaplanMeier: negative time");
  std::sort(observations.begin(), observations.end(),
            [](const SurvivalObservation& a, const SurvivalObservation& b) {
              if (a.time != b.time) return a.time < b.time;
              // Events before censorings at ties (the usual convention).
              return a.event && !b.event;
            });
  n_ = observations.size();

  double s = 1.0;
  std::size_t at_risk = n_;
  std::size_t i = 0;
  while (i < observations.size()) {
    const double t = observations[i].time;
    std::size_t events_here = 0;
    std::size_t total_here = 0;
    while (i < observations.size() && observations[i].time == t) {
      events_here += observations[i].event ? 1 : 0;
      ++total_here;
      ++i;
    }
    if (events_here > 0) {
      s *= 1.0 - static_cast<double>(events_here) / static_cast<double>(at_risk);
      steps_.push_back(KaplanMeierStep{t, s, at_risk, events_here});
      events_ += events_here;
    }
    at_risk -= total_here;
  }
}

double KaplanMeier::survival_at(double t) const noexcept {
  // steps_ is sorted by time: binary-search the first step past t (this
  // is called per grid point per replication — a linear scan was the
  // hot spot).
  const auto it = std::upper_bound(
      steps_.begin(), steps_.end(), t,
      [](double value, const KaplanMeierStep& s) { return value < s.time; });
  return it == steps_.begin() ? 1.0 : std::prev(it)->survival;
}

std::optional<double> KaplanMeier::quantile(double q) const {
  if (!(q > 0.0 && q < 1.0))
    throw std::invalid_argument("KaplanMeier::quantile: q must be in (0,1)");
  for (const auto& step : steps_)
    if (step.survival <= 1.0 - q) return step.time;
  return std::nullopt;
}

double KaplanMeier::restricted_mean(double tau) const {
  if (!(tau > 0.0))
    throw std::invalid_argument("KaplanMeier::restricted_mean: tau must be > 0");
  double area = 0.0;
  double prev_t = 0.0;
  double prev_s = 1.0;
  for (const auto& step : steps_) {
    if (step.time >= tau) break;
    area += prev_s * (step.time - prev_t);
    prev_t = step.time;
    prev_s = step.survival;
  }
  area += prev_s * (tau - prev_t);
  return area;
}

StreamingSurvival::StreamingSurvival(double horizon, std::size_t bins)
    : horizon_(horizon) {
  if (!(horizon > 0.0))
    throw std::invalid_argument("StreamingSurvival: horizon must be > 0");
  if (bins == 0)
    throw std::invalid_argument("StreamingSurvival: need >= 1 bin");
  events_in_.assign(bins, 0);
  censored_in_.assign(bins + 1, 0);
}

void StreamingSurvival::add(double time, bool event) {
  if (events_in_.empty())
    throw std::logic_error("StreamingSurvival::add: default-constructed state");
  if (time < 0.0)
    throw std::invalid_argument("StreamingSurvival: negative time");
  ++n_;
  const std::size_t k = std::min(
      bins() - 1,
      static_cast<std::size_t>(time / horizon_ * static_cast<double>(bins())));
  if (event) {
    ++events_;
    ++events_in_[k];
  } else if (time >= horizon_) {
    ++censored_in_[bins()];  // at risk through every bin
  } else {
    ++censored_in_[k];
  }
}

void StreamingSurvival::merge(const StreamingSurvival& other) {
  if (other.n_ == 0 && other.events_in_.empty()) return;
  if (n_ == 0 && events_in_.empty()) {
    *this = other;
    return;
  }
  if (other.horizon_ != horizon_ || other.events_in_.size() != events_in_.size())
    throw std::invalid_argument("StreamingSurvival::merge: grid mismatch");
  n_ += other.n_;
  events_ += other.events_;
  for (std::size_t k = 0; k < events_in_.size(); ++k)
    events_in_[k] += other.events_in_[k];
  for (std::size_t k = 0; k < censored_in_.size(); ++k)
    censored_in_[k] += other.censored_in_[k];
}

std::vector<double> StreamingSurvival::survival_curve() const {
  std::vector<double> s(bins() + 1, 1.0);
  std::uint64_t removed = 0;  // events + censorings in earlier bins
  for (std::size_t k = 0; k < bins(); ++k) {
    const std::uint64_t at_risk = n_ - removed;
    double factor = 1.0;
    if (events_in_[k] > 0 && at_risk > 0)
      factor = 1.0 - static_cast<double>(events_in_[k]) /
                         static_cast<double>(at_risk);
    s[k + 1] = s[k] * factor;
    removed += events_in_[k] + censored_in_[k];
  }
  return s;
}

std::optional<double> StreamingSurvival::quantile(
    double q, std::span<const double> curve) const {
  if (!(q > 0.0 && q < 1.0))
    throw std::invalid_argument("StreamingSurvival::quantile: q must be in (0,1)");
  if (n_ == 0) return std::nullopt;
  const double width = horizon_ / static_cast<double>(bins());
  for (std::size_t k = 0; k < bins(); ++k)
    if (curve[k + 1] <= 1.0 - q) return width * static_cast<double>(k + 1);
  return std::nullopt;
}

double StreamingSurvival::restricted_mean(
    std::span<const double> curve) const noexcept {
  if (n_ == 0) return 0.0;
  const double width = horizon_ / static_cast<double>(bins());
  double area = 0.0;
  for (std::size_t k = 0; k < bins(); ++k) area += curve[k] * width;
  return area;
}

StreamingSurvival::State StreamingSurvival::state() const {
  return {horizon_, n_, events_, events_in_, censored_in_};
}

StreamingSurvival StreamingSurvival::from_state(const State& s) {
  StreamingSurvival out;
  if (s.events_in.empty()) {
    // The mergeable empty state carries nothing.
    if (s.n != 0 || s.events != 0 || !s.censored_in.empty())
      throw std::invalid_argument(
          "StreamingSurvival::from_state: counts without a bin grid");
    return out;
  }
  if (!(s.horizon > 0.0))
    throw std::invalid_argument(
        "StreamingSurvival::from_state: horizon must be > 0");
  if (s.censored_in.size() != s.events_in.size() + 1)
    throw std::invalid_argument(
        "StreamingSurvival::from_state: censor grid must have bins + 1 entries");
  std::uint64_t events = 0, censored = 0;
  for (const auto e : s.events_in) events += e;
  for (const auto c : s.censored_in) censored += c;
  if (events != s.events || events + censored != s.n)
    throw std::invalid_argument(
        "StreamingSurvival::from_state: bin counts inconsistent with totals");
  out.horizon_ = s.horizon;
  out.n_ = s.n;
  out.events_ = s.events;
  out.events_in_ = s.events_in;
  out.censored_in_ = s.censored_in;
  return out;
}

CensoredTimeAccumulator::CensoredTimeAccumulator(double horizon, std::size_t bins)
    : survival_(horizon, bins) {}

CensoredTimeAccumulator::State CensoredTimeAccumulator::state() const {
  return {moments_.state(), censored_, times_.state(), survival_.state()};
}

CensoredTimeAccumulator CensoredTimeAccumulator::from_state(const State& s) {
  if (s.times.compression != kSketchCompression)
    throw std::invalid_argument(
        "CensoredTimeAccumulator::from_state: sketch compression mismatch");
  if (s.censored > s.moments.n)
    throw std::invalid_argument(
        "CensoredTimeAccumulator::from_state: censored > observations");
  CensoredTimeAccumulator out;
  out.moments_ = OnlineStats::from_state(s.moments);
  out.censored_ = s.censored;
  out.times_ = TDigest::from_state(s.times);
  if (out.times_.count() != s.moments.n)
    throw std::invalid_argument(
        "CensoredTimeAccumulator::from_state: sketch count != observations");
  out.survival_ = StreamingSurvival::from_state(s.survival);
  return out;
}

void CensoredTimeAccumulator::add(double time, bool censored) {
  moments_.add(time);
  if (censored) ++censored_;
  times_.add(time);
  survival_.add(time, /*event=*/!censored);
}

void CensoredTimeAccumulator::merge(const CensoredTimeAccumulator& other) {
  moments_.merge(other.moments_);
  censored_ += other.censored_;
  times_.merge(other.times_);
  survival_.merge(other.survival_);
}

CensoredTimeSummary CensoredTimeAccumulator::summarize() const {
  CensoredTimeSummary s;
  s.observations = moments_.count();
  s.censored = censored_;
  if (s.observations) {
    // One curve evaluation serves both product-limit statistics.
    const std::vector<double> curve = survival_.survival_curve();
    s.restricted_mean = survival_.restricted_mean(curve);
    s.median = survival_.quantile(0.5, curve);
  }
  s.q50 = times_.quantile(0.5);
  s.q90 = times_.quantile(0.9);
  return s;
}

}  // namespace divsec::stats
