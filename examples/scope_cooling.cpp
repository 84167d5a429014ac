// scope_cooling.cpp — the paper's case study at the physical level: the
// SCoPE data-center cooling SCADA under a Stuxnet-style PLC compromise.
//
// Runs the full plant (thermal model + two PLCs + Modbus polling +
// historian + alarms) through four scenarios and prints an operator-style
// timeline for each:
//   1. normal operation,
//   2. sabotage with honest reporting,
//   3. sabotage with Stuxnet replay spoofing,
//   4. sabotage with replay spoofing vs a diverse redundant sensor path.
//
//   ./scope_cooling [seed]
#include <cstdio>

#include "example_args.h"
#include "scada/cooling_system.h"

using namespace divsec::scada;

namespace {

void timeline(const char* title, bool sabotage, SpoofMode spoof, bool redundant,
              std::uint64_t seed) {
  std::printf("\n--- %s ---\n", title);
  CoolingSystem::Options opts;
  opts.plc_scan_s = 1.0;
  opts.poll_interval_s = 5.0;
  opts.redundant_sensor_path = redundant;
  CoolingSystem sys(opts, seed);

  constexpr double kCompromiseAt = 1800.0;
  constexpr double kEnd = 4.0 * 3600.0;
  constexpr double kReport = 600.0;

  std::printf("%8s %10s %10s %8s %10s\n", "t (s)", "room C", "water C", "fan",
              "status");
  for (double t = 0.0; t < kEnd; t += kReport) {
    if (sabotage && t <= kCompromiseAt && kCompromiseAt < t + kReport) {
      sys.advance(kCompromiseAt - t);
      sys.compromise_crac_plc(spoof);
      sys.advance(t + kReport - kCompromiseAt);
      std::printf("%8.0f  << CRAC PLC reprogrammed (%s) >>\n", kCompromiseAt,
                  spoof == SpoofMode::kNone      ? "honest reporting"
                  : spoof == SpoofMode::kConstant ? "frozen value"
                                                  : "replay spoofing");
    } else {
      sys.advance(kReport);
    }
    const char* status = "ok";
    if (sys.impaired() && *sys.impairment_time_s() <= t + kReport)
      status = "OVERHEATED";
    else if (sys.first_detection_time_s() &&
             *sys.first_detection_time_s() <= t + kReport)
      status = "ALARM";
    std::printf("%8.0f %10.2f %10.2f %8.2f %10s\n", t + kReport,
                sys.room_temp_c(), sys.water_temp_c(), sys.crac_plc().output(0),
                status);
  }
  std::printf("impairment: %s;  first detection: %s\n",
              sys.impairment_time_s()
                  ? (std::to_string(static_cast<int>(*sys.impairment_time_s())) + " s")
                        .c_str()
                  : "never",
              sys.first_detection_time_s()
                  ? (std::to_string(static_cast<int>(*sys.first_detection_time_s())) +
                     " s")
                        .c_str()
                  : "never");
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = divsec::examples::u64_arg(argc, argv, 1, "seed", 11);
  std::printf("== SCoPE cooling system: physical-level Stuxnet scenarios ==\n");
  timeline("1. normal operation", false, SpoofMode::kNone, false, seed);
  timeline("2. sabotage, honest reporting (alarms catch it)", true,
           SpoofMode::kNone, false, seed);
  timeline("3. sabotage, replay spoofing (operators see nothing)", true,
           SpoofMode::kReplay, false, seed);
  timeline("4. sabotage, replay spoofing vs diverse redundant sensing", true,
           SpoofMode::kReplay, true, seed);
  return 0;
}
