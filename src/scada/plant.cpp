#include "scada/plant.h"

#include <algorithm>
#include <stdexcept>

namespace divsec::scada {

void PlantParameters::validate() const {
  if (!(room_heat_capacity_kj_per_c > 0.0) || !(water_heat_capacity_kj_per_c > 0.0))
    throw std::invalid_argument("PlantParameters: heat capacities must be > 0");
  if (it_load_kw < 0.0) throw std::invalid_argument("PlantParameters: negative IT load");
  if (!(integration_substep_s > 0.0))
    throw std::invalid_argument("PlantParameters: substep must be > 0");
  if (!(crac_max_exchange_kw_per_c >= 0.0) || !(chiller_capacity_kw >= 0.0))
    throw std::invalid_argument("PlantParameters: negative equipment ratings");
}

CoolingPlant::CoolingPlant(PlantParameters params)
    : params_(params),
      t_room_(params.initial_room_temp_c),
      t_water_(params.initial_water_temp_c) {
  params_.validate();
}

void CoolingPlant::step(double dt_s, double fan_fraction, double valve_fraction) {
  if (dt_s < 0.0) throw std::invalid_argument("CoolingPlant::step: negative dt");
  const double fan = std::clamp(fan_fraction, 0.0, 1.0);
  const double valve = std::clamp(valve_fraction, 0.0, 1.0);
  double remaining = dt_s;
  while (remaining > 0.0) {
    const double h = std::min(remaining, params_.integration_substep_s);
    // CRAC coil: air-to-water exchange proportional to fan speed and
    // temperature difference (only cools when the water is colder).
    const double dT = t_room_ - t_water_;
    const double crac_kw =
        dT > 0.0 ? params_.crac_max_exchange_kw_per_c * fan * dT : 0.0;
    // Chiller: extracts heat from the loop toward its setpoint floor.
    const double chiller_kw =
        (t_water_ > params_.chiller_cop_setpoint_c)
            ? params_.chiller_capacity_kw * valve
            : 0.0;
    const double leak_kw =
        params_.ambient_leak_kw_per_c * (params_.ambient_temp_c - t_room_);
    t_room_ += h * (params_.it_load_kw + leak_kw - crac_kw) /
               params_.room_heat_capacity_kj_per_c;
    t_water_ += h * (crac_kw - chiller_kw) / params_.water_heat_capacity_kj_per_c;
    // The loop cannot drop below the chiller's physical floor.
    t_water_ = std::max(t_water_, params_.chiller_cop_setpoint_c - 2.0);
    time_s_ += h;
    remaining -= h;
  }
}

}  // namespace divsec::scada
