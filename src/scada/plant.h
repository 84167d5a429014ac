// plant.h — physical model of a data-center cooling plant.
//
// The paper's case study is "the cooling system of the SCoPE data center
// at the Federico II University of Naples". We stand in a lumped-
// parameter thermal model: an IT room heated by server load and cooled by
// a CRAC unit whose coil exchanges heat with a chilled-water loop driven
// by a chiller. Two control handles exist — CRAC fan speed and chiller
// valve opening — matching the two PLCs of the assembly
// (cooling_system.h). Integration is forward Euler at a fixed substep,
// which is stable for the time constants involved (minutes).
#pragma once

namespace divsec::scada {

struct PlantParameters {
  double room_heat_capacity_kj_per_c = 4000.0;   // air + racks thermal mass
  double water_heat_capacity_kj_per_c = 8000.0;  // loop + tank
  double it_load_kw = 120.0;                     // server heat output
  double ambient_leak_kw_per_c = 0.4;            // envelope gain/loss
  double ambient_temp_c = 28.0;
  double crac_max_exchange_kw_per_c = 9.0;  // coil UA at full fan
  double chiller_capacity_kw = 180.0;
  double chiller_cop_setpoint_c = 7.0;  // supply temperature target floor
  double initial_room_temp_c = 24.0;
  double initial_water_temp_c = 8.0;
  double integration_substep_s = 1.0;

  void validate() const;
};

/// Continuous plant state advanced by step().
class CoolingPlant {
 public:
  explicit CoolingPlant(PlantParameters params = {});

  /// Advance `dt_s` seconds with the given actuator commands.
  /// fan_fraction and valve_fraction are clamped to [0, 1].
  void step(double dt_s, double fan_fraction, double valve_fraction);

  [[nodiscard]] double room_temp_c() const noexcept { return t_room_; }
  [[nodiscard]] double water_temp_c() const noexcept { return t_water_; }
  [[nodiscard]] double time_s() const noexcept { return time_s_; }

  [[nodiscard]] const PlantParameters& params() const noexcept { return params_; }

  /// Thermal runaway threshold used as the "device impairment" criterion.
  [[nodiscard]] bool overheated(double critical_temp_c = 35.0) const noexcept {
    return t_room_ >= critical_temp_c;
  }

 private:
  PlantParameters params_;
  double t_room_;
  double t_water_;
  double time_s_ = 0.0;
};

}  // namespace divsec::scada
