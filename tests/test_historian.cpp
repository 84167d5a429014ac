// Tests for scada/historian.h — archive, alarms, anomaly detection.
#include <gtest/gtest.h>

#include <cmath>

#include "scada/historian.h"

namespace divsec::scada {
namespace {

TEST(Historian, RecordAndQuery) {
  Historian h;
  h.record("t", 0.0, 1.0);
  h.record("t", 1.0, 2.0);
  h.record("t", 2.0, 3.0);
  const auto all = h.query("t", 0.0);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all.back().value, 3.0);
  EXPECT_EQ(h.query("t", 1.0).size(), 2u);
  EXPECT_TRUE(h.query("missing", 0.0).empty());
}

TEST(Historian, RejectsTimeTravel) {
  Historian h;
  h.record("t", 5.0, 1.0);
  EXPECT_THROW(h.record("t", 4.0, 1.0), std::invalid_argument);
  // Other tags are unaffected.
  EXPECT_NO_THROW(h.record("u", 0.0, 1.0));
}

TEST(Historian, RingCapacityEvictsOldest) {
  Historian h(/*capacity_per_tag=*/3);
  for (int i = 0; i < 5; ++i) h.record("t", i, i * 10.0);
  const auto samples = h.query("t", 0.0);
  EXPECT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples.front().value, 20.0);  // 0 and 10 evicted
  EXPECT_THROW(Historian(0), std::invalid_argument);
}

TEST(AlarmEngine, HighAlarmWithDeadbandRearm) {
  AlarmEngine e;
  e.add_rule({"temp", 30.0, 10.0, 1.0});
  EXPECT_TRUE(e.evaluate("temp", 0.0, 25.0).empty());
  const auto raised = e.evaluate("temp", 1.0, 31.0);
  ASSERT_EQ(raised.size(), 1u);
  EXPECT_EQ(raised[0].reason, "high");
  // Still above: no duplicate alarm.
  EXPECT_TRUE(e.evaluate("temp", 2.0, 32.0).empty());
  // Dips below limit but inside deadband: still armed-off.
  EXPECT_TRUE(e.evaluate("temp", 3.0, 29.5).empty());
  // Below limit - deadband: re-arms.
  EXPECT_TRUE(e.evaluate("temp", 4.0, 28.5).empty());
  EXPECT_EQ(e.evaluate("temp", 5.0, 30.5).size(), 1u);
  EXPECT_EQ(e.alarm_log().size(), 2u);
}

TEST(AlarmEngine, LowAlarm) {
  AlarmEngine e;
  e.add_rule({"temp", 30.0, 10.0, 0.5});
  const auto raised = e.evaluate("temp", 1.0, 9.0);
  ASSERT_EQ(raised.size(), 1u);
  EXPECT_EQ(raised[0].reason, "low");
}

TEST(AlarmEngine, RulesAreTagScoped) {
  AlarmEngine e;
  e.add_rule({"a", 10.0, 0.0, 0.1});
  EXPECT_TRUE(e.evaluate("b", 0.0, 100.0).empty());
}

TEST(AlarmEngine, RuleValidation) {
  AlarmEngine e;
  EXPECT_THROW(e.add_rule({"a", 1.0, 2.0, 0.1}), std::invalid_argument);
  EXPECT_THROW(e.add_rule({"a", 2.0, 1.0, -0.1}), std::invalid_argument);
}

TEST(AnomalyDetector, StuckValueFlagsReplays) {
  Historian h;
  // A frozen (spoofed-constant) signal for 10 minutes at 1 Hz.
  for (int i = 0; i < 600; ++i) h.record("t", i, 24.0);
  const AnomalyDetector d;
  const auto alarms = d.inspect(h, "t", 600.0);
  ASSERT_FALSE(alarms.empty());
  EXPECT_EQ(alarms[0].reason, "stuck");
}

TEST(AnomalyDetector, LiveNoisySignalPasses) {
  Historian h;
  for (int i = 0; i < 600; ++i)
    h.record("t", i, 24.0 + 0.1 * std::sin(i * 0.05));
  const AnomalyDetector d;
  EXPECT_TRUE(d.inspect(h, "t", 600.0).empty());
}

TEST(AnomalyDetector, RateOfChangeFlagsPhysicallyImpossibleJumps) {
  Historian h;
  for (int i = 0; i < 100; ++i)
    h.record("t", i, 24.0 + 0.02 * i);  // includes natural variation
  h.record("t", 100.0, 80.0);           // instant +54 C: tampering
  AnomalyDetector::Options opts;
  opts.window_s = 200.0;
  opts.min_samples = 10;
  const AnomalyDetector d(opts);
  const auto alarms = d.inspect(h, "t", 101.0);
  ASSERT_FALSE(alarms.empty());
  bool has_rate = false;
  for (const auto& a : alarms) has_rate |= (a.reason == "rate-of-change");
  EXPECT_TRUE(has_rate);
}

TEST(AnomalyDetector, NeedsMinimumSamples) {
  Historian h;
  for (int i = 0; i < 5; ++i) h.record("t", i, 24.0);
  const AnomalyDetector d;
  EXPECT_TRUE(d.inspect(h, "t", 5.0).empty());  // too few samples to judge
}

TEST(AnomalyDetector, OptionValidation) {
  AnomalyDetector::Options bad;
  bad.window_s = 0.0;
  EXPECT_THROW(AnomalyDetector{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace divsec::scada
