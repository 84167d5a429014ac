// Tests for san/ — model construction, execution semantics, rewards, and
// Monte-Carlo agreement with closed-form results.
#include <gtest/gtest.h>

#include <cmath>

#include "san/analysis.h"
#include "san/model.h"
#include "san/simulator.h"
#include "stats/descriptive.h"

namespace divsec::san {
namespace {

TEST(SanModel, PlacesAndLookup) {
  SanModel m;
  const PlaceId a = m.add_place("alpha", 2);
  const PlaceId b = m.add_place("beta");
  EXPECT_EQ(m.place_count(), 2u);
  EXPECT_EQ(m.place(a).initial, 2);
  EXPECT_EQ(m.place_by_name("beta"), b);
  EXPECT_THROW((void)m.place_by_name("gamma"), std::out_of_range);
  EXPECT_THROW(m.add_place("neg", -1), std::invalid_argument);
  const Marking init = m.initial_marking();
  EXPECT_EQ(init[a], 2);
  EXPECT_EQ(init[b], 0);
}

TEST(SanModel, ValidationCatchesBadCaseProbabilities) {
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const ActivityId a = m.add_timed_activity("t", stats::Exponential{1.0});
  m.add_input_arc(a, p);
  m.add_case(a, 0.5);
  m.add_case(a, 0.3);  // sums to 0.8
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(SanModel, AddCaseReplacesImplicitDefaultOnce) {
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const ActivityId a = m.add_timed_activity("t", stats::Exponential{1.0});
  m.add_input_arc(a, p);
  EXPECT_EQ(m.add_case(a, 1.0), 0u);  // replaces the default
  EXPECT_EQ(m.add_case(a, 0.0), 1u);  // appends (regression: used to replace)
  m.add_output_arc(a, p, 1, 0);
  EXPECT_NO_THROW(m.validate());
}

TEST(SanModel, ArcsAfterImplicitDefaultThenCasesRejected) {
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const ActivityId a = m.add_timed_activity("t", stats::Exponential{1.0});
  m.add_output_arc(a, p);  // attaches to the implicit default
  EXPECT_THROW(m.add_case(a, 0.5), std::logic_error);
}

TEST(SanModel, StructuralErrors) {
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const ActivityId a = m.add_timed_activity("t", stats::Exponential{1.0});
  EXPECT_THROW(m.add_input_arc(a, 99), std::out_of_range);
  EXPECT_THROW(m.add_input_arc(99, p), std::out_of_range);
  EXPECT_THROW(m.add_input_arc(a, p, 0), std::invalid_argument);
  EXPECT_THROW(m.add_output_arc(a, p, 1, 5), std::out_of_range);
  EXPECT_THROW(m.add_input_gate(a, nullptr), std::invalid_argument);
  EXPECT_THROW(m.add_output_gate(a, nullptr), std::invalid_argument);
  EXPECT_THROW(m.add_instantaneous_activity("w", 0.0), std::invalid_argument);
}

/// One token, one exponential transition: first passage is Exp(rate).
TEST(SanSimulator, SingleExponentialFirstPassage) {
  SanModel m;
  const PlaceId src = m.add_place("src", 1);
  const PlaceId dst = m.add_place("dst", 0);
  const ActivityId a = m.add_timed_activity("fire", stats::Exponential{2.0});
  m.add_input_arc(a, src);
  m.add_output_arc(a, dst);

  const auto fp = first_passage(
      m, [dst](const Marking& mk) { return mk[dst] >= 1; }, 100.0, 20000, 7);
  EXPECT_EQ(fp.censored, 0u);
  EXPECT_NEAR(fp.conditional_mean(), 0.5, 0.02);
  EXPECT_NEAR(fp.absorption_probability(), 1.0, 1e-12);
}

/// Two competing exponentials: P[A wins] = ra / (ra + rb).
TEST(SanSimulator, ExponentialRaceProbability) {
  SanModel m;
  const PlaceId token = m.add_place("token", 1);
  const PlaceId wa = m.add_place("a_won", 0);
  const PlaceId wb = m.add_place("b_won", 0);
  const ActivityId a = m.add_timed_activity("a", stats::Exponential{3.0});
  const ActivityId b = m.add_timed_activity("b", stats::Exponential{1.0});
  m.add_input_arc(a, token);
  m.add_output_arc(a, wa);
  m.add_input_arc(b, token);
  m.add_output_arc(b, wb);

  const auto res = instant_of_time(
      m, [wa](const Marking& mk) { return static_cast<double>(mk[wa]); }, 50.0,
      20000, 13);
  EXPECT_NEAR(res.stats.mean(), 0.75, 0.01);
}

/// Case probabilities select outcomes at the specified frequencies.
TEST(SanSimulator, CaseSelectionFrequencies) {
  SanModel m;
  const PlaceId src = m.add_place("src", 1);
  const PlaceId heads = m.add_place("heads", 0);
  const PlaceId tails = m.add_place("tails", 0);
  const ActivityId flip = m.add_timed_activity("flip", stats::Deterministic{1.0});
  m.add_input_arc(flip, src);
  const auto ch = m.add_case(flip, 0.3);
  const auto ct = m.add_case(flip, 0.7);
  m.add_output_arc(flip, heads, 1, ch);
  m.add_output_arc(flip, tails, 1, ct);

  const auto res = instant_of_time(
      m, [heads](const Marking& mk) { return static_cast<double>(mk[heads]); }, 2.0,
      20000, 17);
  EXPECT_NEAR(res.stats.mean(), 0.3, 0.01);
}

/// Instantaneous activities complete before time advances.
TEST(SanSimulator, InstantaneousFiresBeforeTimedAtTimeZero) {
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const PlaceId q = m.add_place("q", 0);
  const ActivityId inst = m.add_instantaneous_activity("now");
  m.add_input_arc(inst, p);
  m.add_output_arc(inst, q);
  stats::Rng rng(1);
  SanSimulator sim(m, rng);
  // Already resolved during reset, at time 0.
  EXPECT_EQ(sim.tokens(q), 1);
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(SanSimulator, InstantaneousWeightsBiasSelection) {
  // Two instantaneous activities compete for one token; weight 3:1.
  int a_wins = 0;
  for (int rep = 0; rep < 4000; ++rep) {
    SanModel m;
    const PlaceId p = m.add_place("p", 1);
    const PlaceId qa = m.add_place("qa", 0);
    const PlaceId qb = m.add_place("qb", 0);
    const ActivityId a = m.add_instantaneous_activity("a", 3.0);
    const ActivityId b = m.add_instantaneous_activity("b", 1.0);
    m.add_input_arc(a, p);
    m.add_output_arc(a, qa);
    m.add_input_arc(b, p);
    m.add_output_arc(b, qb);
    stats::Rng rng(100, rep);
    SanSimulator sim(m, rng);
    if (sim.tokens(qa) == 1) ++a_wins;
  }
  EXPECT_NEAR(a_wins / 4000.0, 0.75, 0.03);
}

TEST(SanSimulator, InputGatePredicateControlsEnabling) {
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const PlaceId gatep = m.add_place("gate", 0);
  const PlaceId out = m.add_place("out", 0);
  const ActivityId a = m.add_timed_activity("a", stats::Deterministic{1.0});
  m.add_input_arc(a, p);
  m.add_input_gate(a, [gatep](const Marking& mk) { return mk[gatep] >= 1; });
  m.add_output_arc(a, out);
  const ActivityId open = m.add_timed_activity("open", stats::Deterministic{5.0});
  const PlaceId trigger = m.add_place("trigger", 1);
  m.add_input_arc(open, trigger);
  m.add_output_arc(open, gatep);

  stats::Rng rng(2);
  SanSimulator sim(m, rng);
  sim.run_until(3.0);
  EXPECT_EQ(sim.tokens(out), 0);  // gate still closed
  sim.run_until(10.0);
  EXPECT_EQ(sim.tokens(out), 1);  // opened at 5, fired at 6
}

TEST(SanSimulator, OutputGateFunctionRuns) {
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const PlaceId bucket = m.add_place("bucket", 0);
  const ActivityId a = m.add_timed_activity("a", stats::Deterministic{1.0});
  m.add_input_arc(a, p);
  m.add_output_gate(a, [bucket](Marking& mk) { mk[bucket] += 5; });
  stats::Rng rng(3);
  SanSimulator sim(m, rng);
  sim.run_until(2.0);
  EXPECT_EQ(sim.tokens(bucket), 5);
}

TEST(SanSimulator, GateDrivingTokensNegativeThrows) {
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const PlaceId victim = m.add_place("victim", 0);
  const ActivityId a = m.add_timed_activity("a", stats::Deterministic{1.0});
  m.add_input_arc(a, p);
  m.add_output_gate(a, [victim](Marking& mk) { mk[victim] -= 1; });
  stats::Rng rng(4);
  SanSimulator sim(m, rng);
  EXPECT_THROW(sim.run_until(2.0), std::logic_error);
}

TEST(SanSimulator, InstantaneousLoopDetected) {
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const ActivityId a = m.add_instantaneous_activity("loop");
  m.add_input_arc(a, p);
  m.add_output_arc(a, p);  // puts the token straight back: unstable
  stats::Rng rng(5);
  EXPECT_THROW(SanSimulator(m, rng), std::logic_error);
}

TEST(SanSimulator, DisabledActivityIsAborted) {
  // Two activities consume the same token; the loser must not fire later.
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const PlaceId fastp = m.add_place("fast", 0);
  const PlaceId slowp = m.add_place("slow", 0);
  const ActivityId fast = m.add_timed_activity("fast", stats::Deterministic{1.0});
  const ActivityId slow = m.add_timed_activity("slow", stats::Deterministic{2.0});
  m.add_input_arc(fast, p);
  m.add_output_arc(fast, fastp);
  m.add_input_arc(slow, p);
  m.add_output_arc(slow, slowp);
  stats::Rng rng(6);
  SanSimulator sim(m, rng);
  sim.run_until(10.0);
  EXPECT_EQ(sim.tokens(fastp), 1);
  EXPECT_EQ(sim.tokens(slowp), 0);
  EXPECT_EQ(sim.firings_of(slow), 0u);
}

/// M/M/1 queue: arrival rate 1, service rate 2 -> steady-state mean queue
/// length (including in service) is rho/(1-rho) = 1.
TEST(SanSimulator, MM1MeanQueueLengthMatchesTheory) {
  SanModel m;
  const PlaceId queue = m.add_place("queue", 0);
  const ActivityId arrive = m.add_timed_activity("arrive", stats::Exponential{1.0});
  m.add_output_arc(arrive, queue);  // always enabled (no input arcs)
  const ActivityId serve = m.add_timed_activity("serve", stats::Exponential{2.0});
  m.add_input_arc(serve, queue);
  const auto res = interval_of_time_average(
      m, [queue](const Marking& mk) { return static_cast<double>(mk[queue]); },
      4000.0, 60, 23);
  EXPECT_NEAR(res.stats.mean(), 1.0, 0.08);
}

/// Two-state availability model: fail rate 0.1, repair rate 0.9 ->
/// steady-state availability 0.9.
TEST(SanSimulator, AvailabilityModelMatchesTheory) {
  SanModel m;
  const PlaceId up = m.add_place("up", 1);
  const PlaceId down = m.add_place("down", 0);
  const ActivityId fail = m.add_timed_activity("fail", stats::Exponential{0.1});
  m.add_input_arc(fail, up);
  m.add_output_arc(fail, down);
  const ActivityId repair = m.add_timed_activity("repair", stats::Exponential{0.9});
  m.add_input_arc(repair, down);
  m.add_output_arc(repair, up);
  const auto res = interval_of_time_average(
      m, [up](const Marking& mk) { return static_cast<double>(mk[up]); }, 5000.0,
      40, 29);
  EXPECT_NEAR(res.stats.mean(), 0.9, 0.01);
}

TEST(SanSimulator, FiringsOfCountsCompletions) {
  SanModel m;
  const PlaceId clock = m.add_place("clock", 1);
  const ActivityId tick = m.add_timed_activity("tick", stats::Deterministic{1.0});
  m.add_input_arc(tick, clock);
  m.add_output_arc(tick, clock);
  stats::Rng rng(31);
  SanSimulator sim(m, rng);
  sim.run_until(10.5);
  EXPECT_EQ(sim.firings_of(tick), 10u);
  EXPECT_EQ(sim.total_firings(), 10u);
}

TEST(SanSimulator, RateRewardIntegratesExactly) {
  // Token sits in p for exactly 3 time units then leaves.
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const PlaceId q = m.add_place("q", 0);
  const ActivityId a = m.add_timed_activity("a", stats::Deterministic{3.0});
  m.add_input_arc(a, p);
  m.add_output_arc(a, q);
  stats::Rng rng(37);
  SanSimulator sim(m, rng);
  const auto r = sim.add_rate_reward(
      [p](const Marking& mk) { return static_cast<double>(mk[p]); });
  sim.run_until(10.0);
  EXPECT_NEAR(sim.rate_reward(r), 3.0, 1e-12);
  EXPECT_NEAR(sim.rate_reward_average(r), 0.3, 1e-12);
}

TEST(SanSimulator, DeterministicInSeed) {
  SanModel m;
  const PlaceId p = m.add_place("p", 5);
  const PlaceId q = m.add_place("q", 0);
  const ActivityId a = m.add_timed_activity("a", stats::Exponential{1.0});
  m.add_input_arc(a, p);
  m.add_output_arc(a, q);
  stats::Rng r1(99), r2(99);
  SanSimulator s1(m, r1), s2(m, r2);
  s1.run_until(3.0);
  s2.run_until(3.0);
  EXPECT_EQ(s1.tokens(q), s2.tokens(q));
  EXPECT_EQ(s1.total_firings(), s2.total_firings());
}

TEST(SanSimulator, ResetRestoresInitialState) {
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const PlaceId q = m.add_place("q", 0);
  const ActivityId a = m.add_timed_activity("a", stats::Deterministic{1.0});
  m.add_input_arc(a, p);
  m.add_output_arc(a, q);
  stats::Rng rng(41);
  SanSimulator sim(m, rng);
  sim.run_until(5.0);
  EXPECT_EQ(sim.tokens(q), 1);
  sim.reset();
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.tokens(p), 1);
  EXPECT_EQ(sim.tokens(q), 0);
  EXPECT_EQ(sim.total_firings(), 0u);
}

TEST(FirstPassage, CensoringCounted) {
  SanModel m;
  const PlaceId src = m.add_place("src", 1);
  const PlaceId dst = m.add_place("dst", 0);
  const ActivityId a = m.add_timed_activity("slow", stats::Exponential{0.01});
  m.add_input_arc(a, src);
  m.add_output_arc(a, dst);
  // Horizon 10 with mean 100: most runs censor. P[absorb] = 1 - e^-0.1.
  const auto fp = first_passage(
      m, [dst](const Marking& mk) { return mk[dst] >= 1; }, 10.0, 5000, 43);
  EXPECT_NEAR(fp.absorption_probability(), 1.0 - std::exp(-0.1), 0.01);
  EXPECT_EQ(fp.censored + fp.times.size(), 5000u);
}

/// Marking-dependent rates: M/M/2 with lambda = mu = 1 (rho = 0.5) has
/// mean number in system L = 4/3.
TEST(SanSimulator, MM2MarkingDependentServiceRate) {
  SanModel m;
  const PlaceId queue = m.add_place("queue", 0);
  const ActivityId arrive = m.add_timed_activity("arrive", stats::Exponential{1.0});
  m.add_output_arc(arrive, queue);
  const ActivityId serve = m.add_timed_activity("serve", stats::Exponential{1.0});
  m.add_input_arc(serve, queue);
  m.set_rate_scale(serve, [queue](const Marking& mk) {
    return static_cast<double>(std::min<Tokens>(2, mk[queue]));
  });
  const auto res = interval_of_time_average(
      m, [queue](const Marking& mk) { return static_cast<double>(mk[queue]); },
      4000.0, 60, 51);
  EXPECT_NEAR(res.stats.mean(), 4.0 / 3.0, 0.08);
}

TEST(SanSimulator, RateScaleSpeedsUpProportionally) {
  // A transition at scale 4 completes (in distribution) 4x faster.
  SanModel m;
  const PlaceId src = m.add_place("src", 1);
  const PlaceId dst = m.add_place("dst", 0);
  const ActivityId a = m.add_timed_activity("a", stats::Exponential{1.0});
  m.add_input_arc(a, src);
  m.add_output_arc(a, dst);
  m.set_rate_scale(a, [](const Marking&) { return 4.0; });
  const auto fp = first_passage(
      m, [dst](const Marking& mk) { return mk[dst] >= 1; }, 100.0, 20000, 53);
  EXPECT_NEAR(fp.conditional_mean(), 0.25, 0.01);
}

TEST(SanSimulator, RateScaleValidation) {
  SanModel m;
  const PlaceId p = m.add_place("p", 1);
  const ActivityId timed = m.add_timed_activity("t", stats::Exponential{1.0});
  const ActivityId inst = m.add_instantaneous_activity("i");
  m.add_input_arc(timed, p);
  m.add_output_arc(timed, p);
  m.add_input_arc(inst, p, 2);  // never enabled (only 1 token)
  EXPECT_THROW(m.set_rate_scale(timed, nullptr), std::invalid_argument);
  EXPECT_THROW(m.set_rate_scale(inst, [](const Marking&) { return 1.0; }),
               std::invalid_argument);
  // Zero scale while enabled is a model bug caught at runtime.
  m.set_rate_scale(timed, [](const Marking&) { return 0.0; });
  stats::Rng rng(55);
  EXPECT_THROW(SanSimulator(m, rng), std::logic_error);
}

TEST(Analysis, Errors) {
  SanModel m;
  m.add_place("p", 1);
  const ActivityId a = m.add_timed_activity("a", stats::Exponential{1.0});
  m.add_input_arc(a, 0);
  EXPECT_THROW(first_passage(m, nullptr, 10.0, 10, 1), std::invalid_argument);
  EXPECT_THROW(
      first_passage(m, [](const Marking&) { return true; }, -1.0, 10, 1),
      std::invalid_argument);
  EXPECT_THROW(instant_of_time(m, nullptr, 1.0, 10, 1), std::invalid_argument);
  EXPECT_THROW(
      interval_of_time_average(m, [](const Marking&) { return 0.0; }, 0.0, 10, 1),
      std::invalid_argument);
}

}  // namespace
}  // namespace divsec::san
