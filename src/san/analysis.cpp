#include "san/analysis.h"

#include <stdexcept>

#include "sim/streaming.h"

namespace divsec::san {

namespace {

void validate_first_passage(const Predicate& absorbed, double t_max,
                            std::size_t replications) {
  if (!absorbed) throw std::invalid_argument("first_passage: null predicate");
  if (!(t_max > 0.0)) throw std::invalid_argument("first_passage: t_max must be > 0");
  if (replications == 0)
    throw std::invalid_argument("first_passage: need >= 1 replication");
}

}  // namespace

ReplicationResult interval_of_time_average(
    const SanModel& model, const std::function<double(const Marking&)>& rate, double t,
    std::size_t replications, std::uint64_t seed, const sim::Executor* executor) {
  if (!rate) throw std::invalid_argument("interval_of_time_average: null function");
  if (!(t > 0.0))
    throw std::invalid_argument("interval_of_time_average: t must be > 0");
  if (replications == 0)
    throw std::invalid_argument("interval_of_time_average: need >= 1 replication");
  // Blocked deterministic reduction over (seed, i) streams.
  ReplicationResult r;
  r.stats = sim::blocked_reduce<stats::OnlineStats>(
      executor, replications, /*block=*/0, [] { return stats::OnlineStats{}; },
      [&](stats::OnlineStats& acc, std::size_t i) {
        stats::Rng rng(seed, /*stream=*/i);
        SanSimulator sim(model, rng);
        const std::size_t reward = sim.add_rate_reward(rate);
        sim.run_until(t);
        acc.add(sim.rate_reward_average(reward));
      });
  return r;
}

double FirstPassageResult::conditional_mean() const noexcept {
  if (times.empty()) return 0.0;
  double s = 0.0;
  for (double t : times) s += t;
  return s / static_cast<double>(times.size());
}

FirstPassageResult first_passage(const SanModel& model, const Predicate& absorbed,
                                 double t_max, std::size_t replications,
                                 std::uint64_t seed, const sim::Executor* executor) {
  validate_first_passage(absorbed, t_max, replications);
  FirstPassageResult r;
  r.replications = replications;
  r.t_max = t_max;
  // Per-replication absorption times by (seed, i) stream, aggregated
  // through the shared censored-time accumulator; the retained outcomes
  // feed the times vector in replication order afterwards.
  std::vector<std::optional<double>> outcomes(replications);
  constexpr std::size_t bins = stats::kDefaultSurvivalBins;
  const auto acc = sim::blocked_reduce<stats::CensoredTimeAccumulator>(
      executor, replications, /*block=*/0,
      [t_max] { return stats::CensoredTimeAccumulator(t_max, bins); },
      [&model, &absorbed, t_max, seed, &outcomes](
          stats::CensoredTimeAccumulator& a, std::size_t i) {
        stats::Rng rng(seed, i);
        SanSimulator sim(model, rng);
        const auto t = sim.run_until_predicate(absorbed, t_max);
        outcomes[i] = t;
        a.add(t.value_or(t_max), /*censored=*/!t.has_value());
      });
  r.event_time = acc.summarize();
  for (const auto& t : outcomes) {
    if (t.has_value())
      r.times.push_back(*t);
    else
      ++r.censored;
  }
  return r;
}

}  // namespace divsec::san
