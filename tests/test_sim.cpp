// Tests for sim/simulator.h and sim/replication.h.
#include <gtest/gtest.h>

#include <vector>

#include "sim/replication.h"
#include "sim/simulator.h"

namespace divsec::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimesOrderedByPriorityThenInsertion) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(1.0, [&] { order.push_back(10); }, /*priority=*/1);
  sim.schedule(1.0, [&] { order.push_back(20); }, /*priority=*/0);
  sim.schedule(1.0, [&] { order.push_back(11); }, /*priority=*/1);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{20, 10, 11}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // already cancelled
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, RunUntilStopsAtHorizonAndAdvancesClock) {
  Simulator sim;
  int count = 0;
  sim.schedule(1.0, [&] { ++count; });
  sim.schedule(5.0, [&] { ++count; });
  const std::size_t n = sim.run_until(3.0);
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.now(), 3.0);  // clock advances to the horizon
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, EventsAtExactlyHorizonFire) {
  Simulator sim;
  bool fired = false;
  sim.schedule(2.0, [&] { fired = true; });
  sim.run_until(2.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 5) sim.schedule_in(1.0, next);
  };
  sim.schedule_in(1.0, next);
  sim.run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(sim.now(), 5.0);
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator sim;
  int count = 0;
  sim.schedule(1.0, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule(2.0, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.stopped());
}

TEST(Simulator, ScheduleInThePastThrows) {
  Simulator sim;
  sim.schedule(5.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(sim.schedule_in(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, NullHandlerRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(1.0, Simulator::EventFn{}), std::invalid_argument);
}

TEST(Simulator, ResetClearsEverything) {
  Simulator sim;
  sim.schedule(1.0, [] {});
  sim.run();
  sim.stop();
  sim.reset();
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.stopped());
  bool fired = false;
  sim.schedule(0.5, [&] { fired = true; });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Replication, DeterministicInSeed) {
  const Experiment e = [](stats::Rng& rng) { return rng.uniform(); };
  const auto a = run_replications(e, 50, 42);
  const auto b = run_replications(e, 50, 42);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(Replication, StreamsAreIndependentOfReplicationCount) {
  // Running 10 then 20 replications: the first 10 samples must agree.
  const Experiment e = [](stats::Rng& rng) { return rng.uniform(); };
  const auto a = run_replications(e, 10, 7);
  const auto b = run_replications(e, 20, 7);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(a.samples[i], b.samples[i]);
}

TEST(Replication, ConfidenceIntervalNarrowsWithMoreReps) {
  const Experiment e = [](stats::Rng& rng) { return rng.uniform(); };
  const auto small = run_replications(e, 20, 3);
  const auto large = run_replications(e, 2000, 3);
  EXPECT_LT(large.confidence_interval().half_width(),
            small.confidence_interval().half_width());
  EXPECT_NEAR(large.stats.mean(), 0.5, 0.03);
}

TEST(Replication, SequentialStopsAtPrecision) {
  const Experiment e = [](stats::Rng& rng) { return 10.0 + rng.uniform(); };
  SequentialOptions opts;
  opts.min_replications = 10;
  opts.max_replications = 5000;
  opts.relative_precision = 0.01;
  const auto r = run_sequential(e, opts, 5);
  EXPECT_LT(r.samples.size(), 5000u);
  EXPECT_LE(r.confidence_interval().half_width(), 0.01 * r.stats.mean());
}

TEST(Replication, SequentialRespectsMaxCap) {
  // High-variance experiment with an unreachable precision target.
  const Experiment e = [](stats::Rng& rng) { return rng.uniform() < 0.5 ? 0.0 : 1e6; };
  SequentialOptions opts;
  opts.min_replications = 5;
  opts.max_replications = 50;
  opts.relative_precision = 1e-9;
  const auto r = run_sequential(e, opts, 6);
  EXPECT_EQ(r.samples.size(), 50u);
}

TEST(Replication, Errors) {
  EXPECT_THROW(run_replications(Experiment{}, 10, 1), std::invalid_argument);
  const Experiment e = [](stats::Rng&) { return 0.0; };
  EXPECT_THROW(run_replications(e, 0, 1), std::invalid_argument);
  SequentialOptions bad;
  bad.min_replications = 1;
  EXPECT_THROW(run_sequential(e, bad, 1), std::invalid_argument);
}

}  // namespace
}  // namespace divsec::sim
