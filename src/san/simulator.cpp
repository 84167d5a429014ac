#include "san/simulator.h"

#include <algorithm>
#include <stdexcept>

namespace divsec::san {

SanSimulator::SanSimulator(const SanModel& model, stats::Rng rng)
    : model_(model), rng_(rng) {
  model_.validate();
  firing_counts_.resize(model_.activity_count(), 0);
  clocks_.resize(model_.activity_count(), kInf);
  reset();
}

std::size_t SanSimulator::add_rate_reward(std::function<double(const Marking&)> rate) {
  if (!rate) throw std::invalid_argument("add_rate_reward: null function");
  rate_rewards_.push_back(RateReward{std::move(rate), 0.0});
  return rate_rewards_.size() - 1;
}

double SanSimulator::rate_reward(std::size_t i) const {
  return rate_rewards_.at(i).integral;
}

double SanSimulator::rate_reward_average(std::size_t i) const {
  return now_ > 0.0 ? rate_rewards_.at(i).integral / now_ : 0.0;
}

void SanSimulator::reset() {
  marking_ = model_.initial_marking();
  now_ = 0.0;
  total_firings_ = 0;
  std::fill(firing_counts_.begin(), firing_counts_.end(), std::size_t{0});
  std::fill(clocks_.begin(), clocks_.end(), kInf);
  for (auto& r : rate_rewards_) r.integral = 0.0;
  refresh_clocks();
}

bool SanSimulator::is_enabled(const Activity& a) const {
  for (const auto& arc : a.input_arcs)
    if (marking_[arc.place] < arc.multiplicity) return false;
  for (const auto& gate : a.input_gates)
    if (!gate.enabled(marking_)) return false;
  return true;
}

std::size_t SanSimulator::select_case(const Activity& a) {
  if (a.cases.size() == 1) return 0;
  const double u = rng_.uniform();
  double cum = 0.0;
  for (std::size_t c = 0; c < a.cases.size(); ++c) {
    cum += a.cases[c].probability;
    if (u < cum) return c;
  }
  return a.cases.size() - 1;  // guard against rounding at u ~ 1
}

void SanSimulator::check_marking() const {
  for (PlaceId p = 0; p < marking_.size(); ++p)
    if (marking_[p] < 0)
      throw std::logic_error("SAN invariant violated: place '" + model_.place(p).name +
                             "' has negative tokens (gate function bug)");
}

void SanSimulator::fire(ActivityId id) {
  const Activity& a = model_.activity(id);
  for (const auto& arc : a.input_arcs) marking_[arc.place] -= arc.multiplicity;
  for (const auto& gate : a.input_gates)
    if (gate.function) gate.function(marking_);
  const std::size_t c = select_case(a);
  for (const auto& arc : a.cases[c].output_arcs) marking_[arc.place] += arc.multiplicity;
  check_marking();
  ++total_firings_;
  ++firing_counts_[id];
}

void SanSimulator::refresh_clocks() {
  for (ActivityId id = 0; id < model_.activity_count(); ++id) {
    const Activity& a = model_.activity(id);
    if (is_enabled(a)) {
      if (clocks_[id] == kInf) clocks_[id] = now_ + a.delay.sample(rng_);
      // else: keep the previously sampled completion time (standard
      // enabling-memory semantics).
    } else {
      clocks_[id] = kInf;  // abort
    }
  }
}

void SanSimulator::advance_time(double t) {
  const double dt = t - now_;
  if (dt < 0.0) throw std::logic_error("SanSimulator: time moved backwards");
  for (auto& r : rate_rewards_) r.integral += r.rate(marking_) * dt;
  now_ = t;
}

bool SanSimulator::step() {
  ActivityId next = model_.activity_count();
  double t_min = kInf;
  for (ActivityId id = 0; id < clocks_.size(); ++id) {
    if (clocks_[id] < t_min) {
      t_min = clocks_[id];
      next = id;
    }
  }
  if (next == model_.activity_count()) return false;  // absorbed
  advance_time(t_min);
  clocks_[next] = kInf;
  fire(next);
  refresh_clocks();
  return true;
}

std::size_t SanSimulator::run_until(double t) {
  if (t < now_) throw std::invalid_argument("run_until: t in the past");
  std::size_t fired = 0;
  for (;;) {
    double t_min = kInf;
    for (double c : clocks_) t_min = std::min(t_min, c);
    if (t_min > t) break;
    if (step()) ++fired;
  }
  advance_time(t);
  return fired;
}

std::optional<double> SanSimulator::run_until_predicate(const Predicate& pred,
                                                        double t_max) {
  if (!pred) throw std::invalid_argument("run_until_predicate: null predicate");
  if (pred(marking_)) return now_;
  for (;;) {
    double t_min = kInf;
    for (double c : clocks_) t_min = std::min(t_min, c);
    if (t_min > t_max) break;
    if (!step()) break;
    if (pred(marking_)) return now_;
  }
  if (now_ < t_max) advance_time(t_max);
  return std::nullopt;
}

}  // namespace divsec::san
