// threat.h — parameterized threat profiles (Stuxnet, Duqu, Flame).
//
// The paper grounds its attack model in Stuxnet and names Duqu and Flame
// as the wider threat set of its future work. A ThreatProfile bundles the
// attacker's toolkit (exploits per component kind), propagation channels,
// per-stage attempt rates, stealth, and — Stuxnet's signature move —
// monitoring-signal spoofing effectiveness. Time unit: hours.
//
// Threat *specs* make the profile a sweep axis: "stuxnet" names the
// canonical profile, "stuxnet:scan=2,dwell=0.5,channels=usb+http" tunes
// it — tempo multipliers, a stealth override, a channel-set override —
// deterministically from the string alone. canonical_threat_spec
// renders one spelling per tuning (default parameters are omitted, so
// "stuxnet:scan=1" and "stuxnet" fingerprint identically in the sweep
// layer).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "divers/variants.h"
#include "net/topology.h"

namespace divsec::attack {

struct ThreatProfile {
  std::string name;

  /// Channels the malware can propagate over.
  std::vector<net::Channel> channels;

  // --- Toolkit ------------------------------------------------------------
  divers::Exploit activation_exploit;  // user-level code execution (OS)
  divers::Exploit privesc_exploit;     // privilege escalation (OS)
  divers::Exploit lateral_exploit;     // remote exploitation of peers (OS)
  divers::Exploit firewall_exploit;    // bypass of a blocking firewall
  divers::Exploit protocol_exploit;    // fieldbus stack abuse
  divers::Exploit plc_exploit;         // PLC reprogramming payload
  divers::Exploit hmi_exploit;         // HMI compromise (view spoofing)

  /// Whether the profile carries a physical-sabotage payload at all
  /// (espionage campaigns don't).
  bool has_sabotage_payload = true;

  // --- Tempo (attempts per hour) -------------------------------------------
  double entry_rate = 1.0 / 72.0;       // initial delivery opportunities
  double activation_rate = 0.5;
  double privesc_rate = 0.25;
  double propagation_rate = 0.2;        // per compromised node
  double payload_rate = 0.1;            // PLC payload delivery attempts
  double sabotage_mean_hours = 720.0;   // slow physical damage development

  // --- Stealth ---------------------------------------------------------------
  /// Reduces host-side detection: effective host detection rate is
  /// base * (1 - stealth).
  double stealth = 0.5;
  /// Stuxnet-style replay of regular monitoring signals: reduces
  /// alarm-channel detection during impairment by this factor.
  double spoof_effectiveness = 0.0;

  void validate() const;

  // Canonical profiles. `catalog_seed` only matters in that exploits
  // reference development-variant indices of VariantCatalog::standard.
  [[nodiscard]] static ThreatProfile stuxnet();
  [[nodiscard]] static ThreatProfile duqu();
  [[nodiscard]] static ThreatProfile flame();
};

/// The base profile names ("stuxnet", "duqu", "flame") — what error
/// listings and --help print.
[[nodiscard]] std::vector<std::string> threat_names();

/// Upper bound on the scan, entry and payload tempo factors. The largest
/// in-tree value is 2; at 10^3 a scope_cooling replication still ends
/// after ~5k-190k events, while a factor like 1e300 drives a rate so
/// high that `now + delay == now` and simulated time stops advancing.
inline constexpr double kMaxThreatTempo = 1e3;

/// One tuned point on the threat-model axis: multiplicative tempo knobs
/// over a named base profile plus optional absolute overrides. The
/// identity tuning (all 1.0, no overrides) is the base profile itself.
struct ThreatTuning {
  std::string base;            // a threat_names() entry
  double scan = 1.0;           // × propagation_rate (worm scan tempo)
  double entry = 1.0;          // × entry_rate (delivery opportunities)
  double payload = 1.0;        // × payload_rate (PLC payload attempts)
  double dwell = 1.0;          // × sabotage_mean_hours (patience)
  std::optional<double> stealth;  // absolute override, [0,1)
  /// Channel-set override ("channels=usb+http"): multi-channel entry /
  /// propagation experiments. Tokens: usb, smb, spooler, project,
  /// modbus, http.
  std::optional<std::vector<net::Channel>> channels;

  /// Parse "BASE[:k=v,...]" (k in scan, entry, payload, dwell, stealth,
  /// channels; values in util/strict_text.h's number grammar). scan,
  /// entry and payload must lie in (0, kMaxThreatTempo], dwell > 0,
  /// stealth in [0,1). Throws std::invalid_argument listing bases / keys
  /// / channel tokens on anything unknown, non-finite or out of range.
  [[nodiscard]] static ThreatTuning parse(const std::string& spec);

  /// One spelling per tuning: base name, then only the non-default
  /// parameters in fixed order (scan, entry, payload, dwell, stealth,
  /// channels).
  [[nodiscard]] std::string canonical() const;

  /// The tuned profile; its name is the canonical spec. Revalidated, so
  /// a tuning that drives a rate to a nonsensical value throws here.
  [[nodiscard]] ThreatProfile profile() const;
};

/// canonical(parse(spec)) — the sweep layer's one-line normalizer.
[[nodiscard]] std::string canonical_threat_spec(const std::string& spec);

/// parse(spec).profile() — the sweep layer's one-line expander.
[[nodiscard]] ThreatProfile threat_profile_from_spec(const std::string& spec);

/// Base (undefended) detection rates of the monitored system; the
/// campaign and SAN builders combine these with a profile's stealth.
struct DetectionModel {
  /// Undefended host-IDS detections per active compromised node per hour
  /// (mean ~10 days per node; APT-grade stealth divides this further).
  double host_detection_rate = 0.004;
  /// Plant-alarm detections per hour while sabotage is underway,
  /// before monitoring-spoofing suppression.
  double alarm_detection_rate = 0.1;
  /// Probability that one *failed* exploitation attempt trips defenses
  /// (crash reports, AV signatures, IDS). Unlike resident-malware
  /// detection this is NOT discounted by stealth — a crashed service is
  /// noisy no matter how quiet the implant is. This is the mechanism that
  /// makes diversity costly for the attacker: exploits that do not port
  /// cleanly burn attempts, and attempts burn cover.
  double failed_attempt_detection = 0.08;
  void validate() const;
};

}  // namespace divsec::attack
