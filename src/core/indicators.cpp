#include "core/indicators.h"

#include <stdexcept>
#include <utility>

#include "core/measurement.h"
#include "core/ratio_curve.h"

namespace divsec::core {

namespace {

using attack::Scenario;
using divers::ComponentKind;

/// Mean exploit success over the OS variants of the given nodes.
double mean_success_over_nodes(const divers::VariantCatalog& cat,
                               const divers::Exploit& e, const Scenario& sc,
                               const std::vector<net::NodeId>& nodes) {
  if (nodes.empty()) return 0.0;
  double acc = 0.0;
  for (net::NodeId n : nodes) acc += cat.exploit_success(e, sc.software[n].os);
  return acc / static_cast<double>(nodes.size());
}

std::vector<net::NodeId> host_nodes(const Scenario& sc) {
  std::vector<net::NodeId> out;
  for (net::NodeId n = 0; n < sc.topology.node_count(); ++n) {
    const net::Role r = sc.topology.node(n).role;
    if (r != net::Role::kPlc && r != net::Role::kSensorGateway) out.push_back(n);
  }
  return out;
}

}  // namespace

attack::StagedAttackModel derive_staged_model(const divers::VariantCatalog& cat,
                                              const Scenario& sc,
                                              const attack::ThreatProfile& profile,
                                              const attack::DetectionModel& detection) {
  profile.validate();
  detection.validate();
  sc.validate(cat);
  const auto hosts = host_nodes(sc);

  attack::StagedAttackModel m;
  m.name = profile.name + "@" + "config";
  const double host_det = detection.host_detection_rate * (1.0 - profile.stealth);
  // Failed attempts trip defenses: while a stage retries, detections
  // arrive at rate = attempts/hour * P[attempt fails] * P[failure seen].
  // Not stealth-discounted (crashes are loud; see DetectionModel).
  const double fail_det = detection.failed_attempt_detection;
  const auto failure_detection = [fail_det](double rate, double p_success) {
    return rate * (1.0 - p_success) * fail_det;
  };

  // initial -> activated: dropper executes on an entry node.
  auto& t0 = m.transitions[0];
  t0.attempt_rate = profile.activation_rate /
                    cat.exploit_work_factor(profile.activation_exploit,
                                            sc.software[sc.entry_nodes.front()].os);
  t0.success_probability =
      mean_success_over_nodes(cat, profile.activation_exploit, sc, sc.entry_nodes);
  // Dormant malware is invisible, but failed activation attempts are not.
  t0.detection_rate = failure_detection(t0.attempt_rate, t0.success_probability);

  // activated -> root access: privilege escalation.
  auto& t1 = m.transitions[1];
  t1.attempt_rate = profile.privesc_rate;
  t1.success_probability =
      mean_success_over_nodes(cat, profile.privesc_exploit, sc, hosts);
  t1.detection_rate =
      host_det + failure_detection(t1.attempt_rate, t1.success_probability);

  // root -> propagation: lateral movement into the control network; a
  // fraction of paths must cross the zone firewall, where a deny verdict
  // can only be beaten by the firewall exploit.
  auto& t2 = m.transitions[2];
  t2.attempt_rate = profile.propagation_rate;
  const double lateral =
      mean_success_over_nodes(cat, profile.lateral_exploit, sc, hosts);
  const double fw_bypass =
      cat.exploit_success(profile.firewall_exploit, sc.firewall_variant);
  t2.success_probability = lateral * (0.6 + 0.4 * fw_bypass);
  t2.detection_rate =
      host_det + failure_detection(t2.attempt_rate, t2.success_probability);

  // propagation -> device impairment: PLC payload delivery; the fieldbus
  // route additionally abuses the protocol stack.
  auto& t3 = m.transitions[3];
  double plc_success = 0.0;
  double proto_success = 0.0;
  if (!sc.target_plcs.empty()) {
    for (net::NodeId plc : sc.target_plcs) {
      plc_success +=
          cat.exploit_success(profile.plc_exploit, *sc.software[plc].plc_firmware);
      proto_success +=
          cat.exploit_success(profile.protocol_exploit, sc.software[plc].protocol);
    }
    plc_success /= static_cast<double>(sc.target_plcs.size());
    proto_success /= static_cast<double>(sc.target_plcs.size());
  }
  t3.attempt_rate =
      profile.payload_rate /
      (sc.target_plcs.empty()
           ? 1.0
           : cat.exploit_work_factor(profile.plc_exploit,
                                     *sc.software[sc.target_plcs.front()].plc_firmware));
  t3.success_probability =
      profile.has_sabotage_payload ? plc_success * (0.7 + 0.3 * proto_success) : 0.0;
  t3.detection_rate =
      host_det + failure_detection(t3.attempt_rate, t3.success_probability);

  // device impairment -> mission complete: slow physical sabotage.
  auto& t4 = m.transitions[4];
  t4.attempt_rate = 1.0 / profile.sabotage_mean_hours;
  t4.success_probability = 1.0;
  t4.detection_rate = host_det;

  m.impairment_detection_rate =
      detection.alarm_detection_rate * (1.0 - profile.spoof_effectiveness);
  m.validate();
  return m;
}

IndicatorSummary measure_indicators(const SystemDescription& description,
                                    const Configuration& config,
                                    const attack::ThreatProfile& profile,
                                    const MeasurementOptions& options) {
  ScenarioSweepPlan plan;
  plan.cells.push_back({description.instantiate(config), options.seed});
  const MeasurementEngine engine(description.catalog(), profile, options);
  return std::move(engine.measure_scenarios(plan).front());
}

IndicatorComparison compare_indicators(const IndicatorSummary& a,
                                       const IndicatorSummary& b) {
  IndicatorComparison c;
  c.success = stats::two_proportion_z_test(a.successes, a.replications,
                                           b.successes, b.replications);
  c.tta = stats::welch_t_test(a.tta, b.tta);
  c.ttsf = stats::welch_t_test(a.ttsf, b.ttsf);
  return c;
}

std::vector<double> mean_compromised_ratio_curve(
    const SystemDescription& description, const Configuration& config,
    const attack::ThreatProfile& profile, const MeasurementOptions& options,
    const std::vector<double>& time_grid_hours) {
  if (options.engine != Engine::kCampaign)
    throw std::invalid_argument(
        "mean_compromised_ratio_curve: requires the campaign engine");
  const IndicatorSummary summary =
      measure_indicators(description, config, profile, options);
  std::vector<double> out(time_grid_hours.size());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = curve_value_at(summary.ratio_curve, summary.horizon_hours,
                            time_grid_hours[i]);
  return out;
}

}  // namespace divsec::core
