// Tests for sim/replication.h: seeded replication streams and the
// sequential stopping loop.
#include <gtest/gtest.h>

#include <vector>

#include "sim/replication.h"

namespace divsec::sim {
namespace {

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
