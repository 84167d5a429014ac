#include "san/analysis.h"

#include <stdexcept>

#include "sim/streaming.h"

namespace divsec::san {

namespace {

/// Shared core of the scalar families: blocked deterministic reduction
/// of experiment outputs over (seed, i) streams, retaining every output
/// in replication order.
sim::ReplicationResult reduce_scalar(const sim::Experiment& experiment,
                                     std::size_t replications, std::uint64_t seed,
                                     const sim::Executor* executor) {
  if (replications == 0)
    throw std::invalid_argument("san estimator: need >= 1 replication");
  sim::ReplicationResult r;
  r.samples.resize(replications);
  r.stats = sim::blocked_reduce<stats::OnlineStats>(
      executor, replications, /*block=*/0, [] { return stats::OnlineStats{}; },
      [&](stats::OnlineStats& acc, std::size_t i) {
        stats::Rng rng(seed, /*stream=*/i);
        const double y = experiment(rng);
        r.samples[i] = y;
        acc.add(y);
      });
  return r;
}

sim::Experiment instant_experiment(const SanModel& model,
                                   const std::function<double(const Marking&)>& f,
                                   double t) {
  if (!f) throw std::invalid_argument("instant_of_time: null function");
  return [&model, &f, t](stats::Rng& rng) {
    SanSimulator sim(model, rng);
    sim.run_until(t);
    return f(sim.marking());
  };
}

sim::Experiment interval_experiment(const SanModel& model,
                                    const std::function<double(const Marking&)>& rate,
                                    double t) {
  if (!rate) throw std::invalid_argument("interval_of_time_average: null function");
  if (!(t > 0.0))
    throw std::invalid_argument("interval_of_time_average: t must be > 0");
  return [&model, &rate, t](stats::Rng& rng) {
    SanSimulator sim(model, rng);
    const std::size_t r = sim.add_rate_reward(rate);
    sim.run_until(t);
    return sim.rate_reward_average(r);
  };
}

void validate_first_passage(const Predicate& absorbed, double t_max,
                            std::size_t replications) {
  if (!absorbed) throw std::invalid_argument("first_passage: null predicate");
  if (!(t_max > 0.0)) throw std::invalid_argument("first_passage: t_max must be > 0");
  if (replications == 0)
    throw std::invalid_argument("first_passage: need >= 1 replication");
}

}  // namespace

sim::ReplicationResult instant_of_time(const SanModel& model,
                                       const std::function<double(const Marking&)>& f,
                                       double t, std::size_t replications,
                                       std::uint64_t seed,
                                       const sim::Executor* executor) {
  return reduce_scalar(instant_experiment(model, f, t), replications, seed,
                       executor);
}

sim::ReplicationResult interval_of_time_average(
    const SanModel& model, const std::function<double(const Marking&)>& rate, double t,
    std::size_t replications, std::uint64_t seed, const sim::Executor* executor) {
  return reduce_scalar(interval_experiment(model, rate, t), replications, seed,
                       executor);
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
