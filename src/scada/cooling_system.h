// cooling_system.h — the SCoPE data-center cooling SCADA assembly.
//
// Wires the substrate together the way the paper's case study describes:
// a physical cooling plant (plant.h), two PLCs (chiller-loop PID and
// CRAC-fan PID, plc.h) polled by a SCADA master over the Modbus-style
// protocol (protocol.h), a historian, an alarm engine and an anomaly
// detector (historian.h), plus an optional *diverse* redundant sensing
// path through the field sensor gateway.
//
// Attack hooks reproduce the Stuxnet behaviour the paper builds on:
// compromising a PLC swaps its control program for sabotage logic while
// its register map keeps serving monitoring data — truthfully, as a
// constant, or as a replay of pre-attack recordings ("emulating regular
// monitoring signals"). Detection latency of each mode is experiment E9.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "scada/historian.h"
#include "scada/plant.h"
#include "scada/plc.h"
#include "scada/protocol.h"
#include "stats/rng.h"

namespace divsec::scada {

/// How a compromised PLC reports its process variable to the master.
enum class SpoofMode {
  kNone,      // serves the real (alarming) values
  kConstant,  // freezes the last pre-attack value
  kReplay,    // cycles recorded pre-attack samples (Stuxnet-style)
};

class CoolingSystem {
 public:
  struct Options {
    PlantParameters plant{};
    double plc_scan_s = 0.5;
    double poll_interval_s = 5.0;
    double anomaly_check_interval_s = 60.0;
    double sensor_noise_sd_c = 0.05;
    double room_setpoint_c = 24.0;
    double water_setpoint_c = 8.0;
    double room_high_alarm_c = 29.0;
    double critical_temp_c = 35.0;
    bool enable_anomaly_detector = true;
    /// Diverse monitoring path: the master cross-checks PLC-reported
    /// temperatures against an independent gateway sensor.
    bool redundant_sensor_path = false;
    double divergence_alarm_c = 2.0;
  };

  CoolingSystem(Options options, std::uint64_t seed);

  /// Advance the whole assembly by `seconds` of simulated time.
  void advance(double seconds);

  // --- Attack hooks -------------------------------------------------------
  /// Replace the CRAC PLC's logic with "fan off" sabotage.
  void compromise_crac_plc(SpoofMode spoof);

  // --- Observability --------------------------------------------------------
  [[nodiscard]] double now_s() const noexcept { return time_s_; }
  [[nodiscard]] double room_temp_c() const noexcept { return plant_.room_temp_c(); }
  [[nodiscard]] double water_temp_c() const noexcept { return plant_.water_temp_c(); }
  [[nodiscard]] bool impaired() const noexcept { return impairment_time_.has_value(); }
  [[nodiscard]] std::optional<double> impairment_time_s() const noexcept {
    return impairment_time_;
  }
  /// First operator-visible manifestation (threshold alarm, anomaly, or
  /// divergence alarm) — the TTSF anchor of experiment E9.
  [[nodiscard]] std::optional<double> first_detection_time_s() const noexcept {
    return detection_time_;
  }
  [[nodiscard]] const Historian& historian() const noexcept { return historian_; }
  [[nodiscard]] const AlarmEngine& alarms() const noexcept { return alarm_engine_; }
  [[nodiscard]] const Plc& chiller_plc() const noexcept { return chiller_plc_; }
  [[nodiscard]] const Plc& crac_plc() const noexcept { return crac_plc_; }

 private:
  struct PlcChannel;

  /// Modbus adapter exposing one PLC's register map, with spoofing.
  class PlcRegisterAdapter final : public RegisterServer {
   public:
    explicit PlcRegisterAdapter(PlcChannel& ch) : ch_(ch) {}
    [[nodiscard]] std::uint16_t register_count() const override { return 4; }
    [[nodiscard]] std::uint16_t read_register(std::uint16_t addr) override;
    void write_register(std::uint16_t addr, std::uint16_t value) override;

   private:
    PlcChannel& ch_;
  };

  struct PlcChannel {
    Plc* plc = nullptr;
    std::string tag;           // historian tag of the process variable
    SpoofMode spoof = SpoofMode::kNone;
    bool compromised = false;
    std::vector<double> replay_buffer;  // pre-attack reported values
    std::size_t replay_cursor = 0;
    double frozen_value = 0.0;
    /// Reported process variable (applies the spoof mode).
    [[nodiscard]] double reported_pv();
  };

  void scan_plcs(double dt);
  void poll_master();
  void run_anomaly_checks();
  void note_detection(double t);

  Options opt_;
  stats::Rng rng_;
  CoolingPlant plant_;
  Plc chiller_plc_;
  Plc crac_plc_;
  PlcChannel chiller_channel_;
  PlcChannel crac_channel_;
  Historian historian_;
  AlarmEngine alarm_engine_;
  AnomalyDetector anomaly_;
  double time_s_ = 0.0;
  double since_scan_ = 0.0;
  double since_poll_ = 0.0;
  double since_anomaly_ = 0.0;
  std::optional<double> impairment_time_;
  std::optional<double> detection_time_;
};

}  // namespace divsec::scada
