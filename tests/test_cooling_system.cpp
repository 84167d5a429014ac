// Tests for scada/cooling_system.h — the SCoPE assembly and the E9
// stealth story: detection latency vs spoofing mode.
#include <gtest/gtest.h>

#include "scada/cooling_system.h"

namespace divsec::scada {
namespace {

CoolingSystem::Options fast_options() {
  CoolingSystem::Options o;
  o.plc_scan_s = 1.0;
  o.poll_interval_s = 5.0;
  o.anomaly_check_interval_s = 30.0;
  return o;
}

TEST(CoolingSystem, NormalOperationHoldsSetpointsWithoutAlarms) {
  CoolingSystem sys(fast_options(), 1);
  sys.advance(2.0 * 3600.0);
  EXPECT_NEAR(sys.room_temp_c(), 24.0, 2.0);
  EXPECT_FALSE(sys.impaired());
  EXPECT_FALSE(sys.first_detection_time_s().has_value());
  EXPECT_GT(sys.historian().query("room_temp", 0.0).size(), 1000u);
}

TEST(CoolingSystem, CracSabotageOverheatsTheRoom) {
  CoolingSystem sys(fast_options(), 2);
  sys.advance(600.0);  // reach steady state
  sys.compromise_crac_plc(SpoofMode::kNone);
  sys.advance(3600.0);
  EXPECT_TRUE(sys.impaired());
  ASSERT_TRUE(sys.impairment_time_s().has_value());
  EXPECT_GT(*sys.impairment_time_s(), 600.0);
}

TEST(CoolingSystem, NoSpoofIsDetectedBeforeImpairment) {
  CoolingSystem sys(fast_options(), 4);
  sys.advance(600.0);
  sys.compromise_crac_plc(SpoofMode::kNone);
  sys.advance(3600.0);
  ASSERT_TRUE(sys.first_detection_time_s().has_value());
  ASSERT_TRUE(sys.impairment_time_s().has_value());
  EXPECT_LT(*sys.first_detection_time_s(), *sys.impairment_time_s());
}

TEST(CoolingSystem, ConstantSpoofCaughtByStuckDetectorEventually) {
  CoolingSystem sys(fast_options(), 5);
  sys.advance(600.0);
  sys.compromise_crac_plc(SpoofMode::kConstant);
  sys.advance(2.0 * 3600.0);
  ASSERT_TRUE(sys.first_detection_time_s().has_value());
  // ...but only after the anomaly window, i.e. later than a live alarm
  // would have fired (~170 s of heating to cross the 29 C threshold).
  EXPECT_GT(*sys.first_detection_time_s(), 600.0 + 500.0);
}

TEST(CoolingSystem, ReplaySpoofEvadesAllSingleChannelDetection) {
  // The Stuxnet mode: replayed live recordings keep variance and rate
  // plausible; without a diverse sensing path the operators see nothing
  // while the room cooks.
  CoolingSystem sys(fast_options(), 6);
  sys.advance(1800.0);  // record plenty of honest samples first
  sys.compromise_crac_plc(SpoofMode::kReplay);
  sys.advance(4.0 * 3600.0);
  EXPECT_TRUE(sys.impaired());
  EXPECT_FALSE(sys.first_detection_time_s().has_value());
}

TEST(CoolingSystem, RedundantSensorPathDefeatsReplaySpoofing) {
  // Diversity of the *monitoring* channel (independent gateway sensor)
  // catches what the spoofed PLC channel hides — the paper's thesis
  // applied to sensing.
  auto opts = fast_options();
  opts.redundant_sensor_path = true;
  CoolingSystem sys(opts, 7);
  sys.advance(1800.0);
  sys.compromise_crac_plc(SpoofMode::kReplay);
  sys.advance(4.0 * 3600.0);
  ASSERT_TRUE(sys.first_detection_time_s().has_value());
  ASSERT_TRUE(sys.impairment_time_s().has_value());
  EXPECT_LT(*sys.first_detection_time_s(), *sys.impairment_time_s());
}

TEST(CoolingSystem, DetectionLatencyOrderingAcrossSpoofModes) {
  // E9 core shape: t_detect(none) < t_detect(constant) < t_detect(replay)
  // (replay = never within the horizon).
  const double horizon = 6.0 * 3600.0;
  auto latency = [&](SpoofMode mode) {
    CoolingSystem sys(fast_options(), 8);
    sys.advance(1800.0);
    sys.compromise_crac_plc(mode);
    sys.advance(horizon);
    return sys.first_detection_time_s().value_or(1e18);
  };
  const double none = latency(SpoofMode::kNone);
  const double constant = latency(SpoofMode::kConstant);
  const double replay = latency(SpoofMode::kReplay);
  EXPECT_LT(none, constant);
  EXPECT_LT(constant, replay);
  EXPECT_EQ(replay, 1e18);  // censored: "undetected for many months"
}

TEST(CoolingSystem, DeterministicInSeed) {
  CoolingSystem a(fast_options(), 9), b(fast_options(), 9);
  a.advance(900.0);
  b.advance(900.0);
  EXPECT_DOUBLE_EQ(a.room_temp_c(), b.room_temp_c());
  EXPECT_DOUBLE_EQ(a.water_temp_c(), b.water_temp_c());
}

TEST(CoolingSystem, OptionValidation) {
  auto opts = fast_options();
  opts.plc_scan_s = 0.0;
  EXPECT_THROW(CoolingSystem(opts, 1), std::invalid_argument);
  CoolingSystem sys(fast_options(), 1);
  EXPECT_THROW(sys.advance(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace divsec::scada
