#include "scada/cooling_system.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/distributions.h"

namespace divsec::scada {

namespace {
constexpr std::size_t kReplayCapacity = 120;

IlProgram make_sabotage_program() {
  // Drive the actuator hard off regardless of inputs: %Q0 = 0.
  using S = OperandSpace;
  return IlProgram{
      {IlOp::kLd, S::kConstant, 0, 0.0},
      {IlOp::kSt, S::kOutput, 0, 0.0},
  };
}
}  // namespace

double CoolingSystem::PlcChannel::reported_pv() {
  const double real = plc->input(0);
  if (!compromised || spoof == SpoofMode::kNone) return real;
  if (spoof == SpoofMode::kConstant) return frozen_value;
  // Replay: cycle through pre-attack recordings.
  if (replay_buffer.empty()) return frozen_value;
  const double v = replay_buffer[replay_cursor];
  replay_cursor = (replay_cursor + 1) % replay_buffer.size();
  return v;
}

std::uint16_t CoolingSystem::PlcRegisterAdapter::read_register(std::uint16_t addr) {
  switch (addr) {
    case 0: return pack_analog(ch_.reported_pv());
    case 1: {
      // A compromised PLC also lies about its actuator command.
      if (ch_.compromised && ch_.spoof != SpoofMode::kNone)
        return pack_analog(0.5);
      return pack_analog(ch_.plc->output(0));
    }
    case 2: return static_cast<std::uint16_t>(ch_.plc->scan_count() & 0xFFFF);
    case 3: return 0;  // reserved setpoint mirror
  }
  return 0;
}

void CoolingSystem::PlcRegisterAdapter::write_register(std::uint16_t addr,
                                                       std::uint16_t value) {
  // Only the reserved setpoint mirror is writable from the master.
  if (addr == 3) ch_.plc->set_memory(kPlcMemory - 1, unpack_analog(value));
}

CoolingSystem::CoolingSystem(Options options, std::uint64_t seed)
    : opt_(options),
      rng_(seed),
      plant_(options.plant),
      chiller_plc_("plc-chiller"),
      crac_plc_("plc-crac"),
      chiller_channel_{&chiller_plc_, "water_temp", SpoofMode::kNone, false, {}, 0, 0.0},
      crac_channel_{&crac_plc_, "room_temp", SpoofMode::kNone, false, {}, 0, 0.0},
      anomaly_(AnomalyDetector::Options{}) {
  if (!(opt_.plc_scan_s > 0.0) || !(opt_.poll_interval_s > 0.0))
    throw std::invalid_argument("CoolingSystem: scan and poll periods must be > 0");
  // Chiller PLC: PID keeps the water loop at its setpoint via the valve.
  chiller_plc_.load_program({}, {PidBlock{0, 0, opt_.water_setpoint_c, 0.4, 0.01, 0.0,
                                          0.0, 1.0, /*reverse_acting=*/true}});
  // CRAC PLC: PID keeps the room at its setpoint via fan speed.
  crac_plc_.load_program({}, {PidBlock{0, 0, opt_.room_setpoint_c, 0.8, 0.02, 0.0, 0.0,
                                       1.0, /*reverse_acting=*/true}});
  alarm_engine_.add_rule(AlarmRule{"room_temp", opt_.room_high_alarm_c, 10.0, 0.5});
  alarm_engine_.add_rule(AlarmRule{"water_temp", 14.0, 2.0, 0.5});
}

void CoolingSystem::note_detection(double t) {
  if (!detection_time_) detection_time_ = t;
}

void CoolingSystem::scan_plcs(double dt) {
  const stats::Normal noise{0.0, opt_.sensor_noise_sd_c};
  chiller_plc_.set_input(0, plant_.water_temp_c() + stats::Distribution(noise).sample(rng_));
  crac_plc_.set_input(0, plant_.room_temp_c() + stats::Distribution(noise).sample(rng_));
  chiller_plc_.scan(dt);
  crac_plc_.scan(dt);
}

void CoolingSystem::poll_master() {
  for (PlcChannel* ch : {&chiller_channel_, &crac_channel_}) {
    PlcRegisterAdapter adapter(*ch);
    const auto resp = transact(
        adapter, Request{1, FunctionCode::kReadHoldingRegisters, 0, 2});
    if (!resp || !resp->ok || resp->values.size() != 2)
      throw std::logic_error("CoolingSystem: poll transaction failed");
    const double pv = unpack_analog(resp->values[0]);
    historian_.record(ch->tag, time_s_, pv);
    for (const auto& alarm : alarm_engine_.evaluate(ch->tag, time_s_, pv))
      note_detection(alarm.time_s);
    // Maintain the replay buffer while the channel is clean so a later
    // compromise has realistic recordings to serve.
    if (!ch->compromised) {
      if (ch->replay_buffer.size() >= kReplayCapacity)
        ch->replay_buffer.erase(ch->replay_buffer.begin());
      ch->replay_buffer.push_back(pv);
      ch->frozen_value = pv;
    }
    // Diverse sensing path: an independent gateway thermometer.
    if (opt_.redundant_sensor_path) {
      const double real = ch->tag == "room_temp" ? plant_.room_temp_c()
                                                 : plant_.water_temp_c();
      const double gateway =
          real + stats::Distribution(stats::Normal{0.0, opt_.sensor_noise_sd_c})
                     .sample(rng_);
      historian_.record(ch->tag + ".gateway", time_s_, gateway);
      if (std::abs(gateway - pv) > opt_.divergence_alarm_c) {
        alarm_engine_.evaluate(ch->tag, time_s_, pv);  // log context
        note_detection(time_s_);
      }
    }
  }
}

void CoolingSystem::run_anomaly_checks() {
  if (!opt_.enable_anomaly_detector) return;
  for (const auto* tag : {"room_temp", "water_temp"}) {
    const auto anomalies = anomaly_.inspect(historian_, tag, time_s_);
    for (const auto& a : anomalies) note_detection(a.time_s);
  }
}

void CoolingSystem::advance(double seconds) {
  if (seconds < 0.0) throw std::invalid_argument("CoolingSystem::advance: negative dt");
  double remaining = seconds;
  while (remaining > 0.0) {
    const double h = std::min(remaining, opt_.plc_scan_s);
    plant_.step(h, crac_plc_.output(0), chiller_plc_.output(0));
    time_s_ += h;
    since_scan_ += h;
    since_poll_ += h;
    since_anomaly_ += h;
    if (since_scan_ >= opt_.plc_scan_s) {
      scan_plcs(since_scan_);
      since_scan_ = 0.0;
    }
    if (since_poll_ >= opt_.poll_interval_s) {
      poll_master();
      since_poll_ = 0.0;
    }
    if (since_anomaly_ >= opt_.anomaly_check_interval_s) {
      run_anomaly_checks();
      since_anomaly_ = 0.0;
    }
    if (!impairment_time_ && plant_.overheated(opt_.critical_temp_c))
      impairment_time_ = time_s_;
    remaining -= h;
  }
}

void CoolingSystem::compromise_crac_plc(SpoofMode spoof) {
  crac_channel_.compromised = true;
  crac_channel_.spoof = spoof;
  crac_plc_.load_program(make_sabotage_program(), {});
}

}  // namespace divsec::scada
