// simulator.h — discrete-event execution of a SanModel, with reward
// variables.
//
// The solver is a direct event-scheduling implementation: each enabled
// timed activity holds a sampled completion clock; the earliest clock
// fires next. Rate rewards are integrated exactly between events. All
// randomness comes from the Rng passed at construction, so a (model,
// seed) pair fully determines a trajectory.
#pragma once

#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "san/model.h"
#include "stats/rng.h"

namespace divsec::san {

class SanSimulator {
 public:
  /// The model must outlive the simulator. Validates the model.
  SanSimulator(const SanModel& model, stats::Rng rng);

  /// Rate reward: integral over time of `rate(marking)` dt.
  std::size_t add_rate_reward(std::function<double(const Marking&)> rate);

  /// Accumulated integral of rate reward `i` up to now().
  [[nodiscard]] double rate_reward(std::size_t i) const;

  /// Time-average of rate reward `i` over [0, now()]; 0 at time 0.
  [[nodiscard]] double rate_reward_average(std::size_t i) const;

  /// Restore the initial marking, zero the clock and all rewards.
  void reset();

  /// Advance to (and fire) the next timed completion. Returns false when
  /// no timed activity is enabled (the SAN is absorbed / dead).
  bool step();

  /// Run until simulated time t (inclusive of events at t); integrates
  /// rate rewards up to exactly t. Returns the number of timed firings.
  std::size_t run_until(double t);

  /// Run until `pred(marking)` first holds or time exceeds t_max.
  /// Returns the absorption time, or nullopt if censored at t_max.
  std::optional<double> run_until_predicate(const Predicate& pred, double t_max);

  [[nodiscard]] const Marking& marking() const noexcept { return marking_; }
  [[nodiscard]] Tokens tokens(PlaceId p) const { return marking_.at(p); }
  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::size_t total_firings() const noexcept { return total_firings_; }
  [[nodiscard]] std::size_t firings_of(ActivityId a) const { return firing_counts_.at(a); }

 private:
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  [[nodiscard]] bool is_enabled(const Activity& a) const;
  void fire(ActivityId id);
  void refresh_clocks();
  void advance_time(double t);
  [[nodiscard]] std::size_t select_case(const Activity& a);
  void check_marking() const;

  const SanModel& model_;
  stats::Rng rng_;
  Marking marking_;
  double now_ = 0.0;
  std::vector<double> clocks_;  // per-activity completion time; kInf if idle
  std::size_t total_firings_ = 0;
  std::vector<std::size_t> firing_counts_;

  struct RateReward {
    std::function<double(const Marking&)> rate;
    double integral = 0.0;
  };
  std::vector<RateReward> rate_rewards_;
};

}  // namespace divsec::san
