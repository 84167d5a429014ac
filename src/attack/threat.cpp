#include "attack/threat.h"

#include <cmath>
#include <stdexcept>
#include <string_view>

#include "util/strict_text.h"

namespace divsec::attack {

namespace {

void check_rate(double r, const char* what, const std::string& name) {
  if (!(r > 0.0) || !std::isfinite(r))
    throw std::invalid_argument(name + ": " + what + " must be finite and > 0");
}

struct ChannelToken {
  const char* token;
  net::Channel channel;
};

constexpr ChannelToken kChannelTokens[net::kChannelCount] = {
    {"usb", net::Channel::kUsb},
    {"smb", net::Channel::kSmbShare},
    {"spooler", net::Channel::kPrintSpooler},
    {"project", net::Channel::kProjectFile},
    {"modbus", net::Channel::kModbus},
    {"http", net::Channel::kHttp},
};

std::string joined_channel_tokens() {
  std::string out;
  for (std::size_t i = 0; i < net::kChannelCount; ++i) {
    if (i) out += ", ";
    out += kChannelTokens[i].token;
  }
  return out;
}

std::string joined_threat_names() {
  std::string out;
  const auto names = threat_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) out += ", ";
    out += names[i];
  }
  return out;
}

const char* channel_token(net::Channel c) {
  for (const ChannelToken& t : kChannelTokens)
    if (t.channel == c) return t.token;
  return "?";
}

std::vector<net::Channel> parse_channel_list(std::string_view text) {
  std::vector<net::Channel> out;
  for (const std::string_view token : util::split(text, '+')) {
    const ChannelToken* match = nullptr;
    for (const ChannelToken& t : kChannelTokens)
      if (token == t.token) match = &t;
    if (match == nullptr)
      throw std::invalid_argument("ThreatTuning: unknown channel '" + std::string(token) +
                                  "' (channels: " + joined_channel_tokens() + ")");
    out.push_back(match->channel);
  }
  return out;
}

}  // namespace

std::vector<std::string> threat_names() { return {"stuxnet", "duqu", "flame"}; }

ThreatTuning ThreatTuning::parse(const std::string& spec) {
  ThreatTuning t;
  const std::size_t colon = spec.find(':');
  t.base = colon == std::string::npos ? spec : spec.substr(0, colon);

  bool known_base = false;
  for (const std::string& n : threat_names()) known_base |= t.base == n;
  if (!known_base)
    throw std::invalid_argument("ThreatTuning: unknown threat '" + t.base +
                                "' (threats: " + joined_threat_names() + ")");

  if (colon == std::string::npos) return t;
  for (const auto& [key, value] : util::key_values<std::invalid_argument>(
           std::string_view(spec).substr(colon + 1), "ThreatTuning")) {
    if (key == "channels") {
      t.channels = parse_channel_list(value);
      continue;
    }
    const std::string what = "ThreatTuning: parameter '" + std::string(key) + "'";
    const double v = util::require_double<std::invalid_argument>(value, what);
    double* const tempo = key == "scan"      ? &t.scan
                          : key == "entry"   ? &t.entry
                          : key == "payload" ? &t.payload
                                             : nullptr;
    if (tempo != nullptr) {
      if (!(v > 0.0 && v <= kMaxThreatTempo))
        throw std::invalid_argument(what + " must be in (0, " +
                                    util::format_double(kMaxThreatTempo) +
                                    "], got " + std::string(value));
      *tempo = v;
    } else if (key == "dwell") {
      if (!(v > 0.0))
        throw std::invalid_argument(what + " must be > 0, got " + std::string(value));
      t.dwell = v;
    } else if (key == "stealth") {
      if (v < 0.0 || v >= 1.0)
        throw std::invalid_argument("ThreatTuning: stealth must be in [0,1), got " +
                                    std::string(value));
      t.stealth = v;
    } else {
      throw std::invalid_argument(
          "ThreatTuning: unknown parameter '" + std::string(key) +
          "' (known: scan, entry, payload, dwell, stealth, channels)");
    }
  }
  return t;
}

std::string ThreatTuning::canonical() const {
  std::string out = base;
  std::string params;
  const auto add = [&params](const std::string& kv) {
    if (!params.empty()) params += ",";
    params += kv;
  };
  if (scan != 1.0) add("scan=" + util::format_double(scan));
  if (entry != 1.0) add("entry=" + util::format_double(entry));
  if (payload != 1.0) add("payload=" + util::format_double(payload));
  if (dwell != 1.0) add("dwell=" + util::format_double(dwell));
  if (stealth) add("stealth=" + util::format_double(*stealth));
  if (channels) {
    std::string list;
    for (net::Channel c : *channels) {
      if (!list.empty()) list += "+";
      list += channel_token(c);
    }
    add("channels=" + list);
  }
  if (!params.empty()) out += ":" + params;
  return out;
}

ThreatProfile ThreatTuning::profile() const {
  ThreatProfile p;
  if (base == "stuxnet") p = ThreatProfile::stuxnet();
  else if (base == "duqu") p = ThreatProfile::duqu();
  else if (base == "flame") p = ThreatProfile::flame();
  else
    throw std::invalid_argument("ThreatTuning: unknown threat '" + base +
                                "' (threats: " + joined_threat_names() + ")");
  p.propagation_rate *= scan;
  p.entry_rate *= entry;
  p.payload_rate *= payload;
  p.sabotage_mean_hours *= dwell;
  if (stealth) p.stealth = *stealth;
  if (channels) p.channels = *channels;
  p.name = canonical();
  p.validate();
  return p;
}

std::string canonical_threat_spec(const std::string& spec) {
  return ThreatTuning::parse(spec).canonical();
}

ThreatProfile threat_profile_from_spec(const std::string& spec) {
  return ThreatTuning::parse(spec).profile();
}

void ThreatProfile::validate() const {
  if (name.empty()) throw std::invalid_argument("ThreatProfile: empty name");
  if (channels.empty())
    throw std::invalid_argument(name + ": needs at least one channel");
  check_rate(entry_rate, "entry_rate", name);
  check_rate(activation_rate, "activation_rate", name);
  check_rate(privesc_rate, "privesc_rate", name);
  check_rate(propagation_rate, "propagation_rate", name);
  check_rate(payload_rate, "payload_rate", name);
  check_rate(sabotage_mean_hours, "sabotage_mean_hours", name);
  if (!(stealth >= 0.0 && stealth < 1.0))
    throw std::invalid_argument(name + ": stealth must be in [0,1)");
  if (!(spoof_effectiveness >= 0.0 && spoof_effectiveness <= 1.0))
    throw std::invalid_argument(name + ": spoof_effectiveness must be in [0,1]");
}

void DetectionModel::validate() const {
  if (host_detection_rate < 0.0 || alarm_detection_rate < 0.0)
    throw std::invalid_argument("DetectionModel: rates must be >= 0");
  if (failed_attempt_detection < 0.0 || failed_attempt_detection > 1.0)
    throw std::invalid_argument(
        "DetectionModel: failed_attempt_detection must be in [0,1]");
}

ThreatProfile ThreatProfile::stuxnet() {
  using divers::ComponentKind;
  ThreatProfile p;
  p.name = "stuxnet";
  p.channels = {net::Channel::kUsb, net::Channel::kSmbShare,
                net::Channel::kPrintSpooler, net::Channel::kProjectFile};
  // Zero-days developed against the legacy Windows build (dev_variant 0).
  p.activation_exploit = {"stuxnet.lnk", ComponentKind::kOs, 110, /*zero_day=*/true,
                          /*dev_variant=*/0, /*base_success=*/0.9};
  p.privesc_exploit = {"stuxnet.keyboard-layout", ComponentKind::kOs, 111, true, 0, 0.8};
  p.lateral_exploit = {"stuxnet.spooler", ComponentKind::kOs, 101, /*zero_day=*/false,
                       0, 0.7};
  p.firewall_exploit = {"stuxnet.fw-tunnel", ComponentKind::kFirewallFirmware, 501,
                        false, 0, 0.3};
  // The PLC reprogramming and s7comm abuse exploit *legitimate*
  // functionality (no patch exists): modelled as zero-days, so only code
  // diversity (gadget survival) and hardening degrade them.
  p.protocol_exploit = {"stuxnet.s7comm", ComponentKind::kProtocolStack, 301,
                        /*zero_day=*/true, 0, 0.6};
  p.plc_exploit = {"stuxnet.plc-rootkit", ComponentKind::kPlcFirmware, 201,
                   /*zero_day=*/true, 0, 0.85};
  p.hmi_exploit = {"stuxnet.wincc-db", ComponentKind::kHmiSoftware, 401, false, 0, 0.7};
  p.has_sabotage_payload = true;
  p.entry_rate = 1.0 / 72.0;
  p.activation_rate = 0.5;
  p.privesc_rate = 0.25;
  p.propagation_rate = 0.2;
  p.payload_rate = 0.15;
  p.sabotage_mean_hours = 500.0;  // grind the device down over ~3 weeks
  p.stealth = 0.95;
  p.spoof_effectiveness = 0.99;   // full replay of recorded sensor values
  p.validate();
  return p;
}

ThreatProfile ThreatProfile::duqu() {
  using divers::ComponentKind;
  ThreatProfile p = stuxnet();
  p.name = "duqu";
  // Espionage: recon toolkit, no sabotage payload, even quieter.
  p.channels = {net::Channel::kUsb, net::Channel::kSmbShare, net::Channel::kHttp};
  p.activation_exploit = {"duqu.ttf", ComponentKind::kOs, 112, true, 0, 0.85};
  p.privesc_exploit = {"duqu.privesc", ComponentKind::kOs, 113, true, 0, 0.7};
  p.lateral_exploit = {"duqu.smb", ComponentKind::kOs, 102, false, 0, 0.5};
  p.plc_exploit = {"duqu.none", ComponentKind::kPlcFirmware, 299, false, 0, 0.0};
  p.has_sabotage_payload = false;
  p.propagation_rate = 0.1;
  p.stealth = 0.95;
  p.spoof_effectiveness = 0.0;
  p.validate();
  return p;
}

ThreatProfile ThreatProfile::flame() {
  using divers::ComponentKind;
  ThreatProfile p = stuxnet();
  p.name = "flame";
  // Broad espionage: aggressive spreading, bigger footprint, less stealth.
  p.channels = {net::Channel::kUsb, net::Channel::kSmbShare,
                net::Channel::kPrintSpooler, net::Channel::kHttp};
  p.activation_exploit = {"flame.msi-collision", ComponentKind::kOs, 114, true, 0, 0.8};
  p.privesc_exploit = {"flame.privesc", ComponentKind::kOs, 103, false, 0, 0.6};
  p.lateral_exploit = {"flame.wpad", ComponentKind::kOs, 104, false, 0, 0.65};
  p.plc_exploit = {"flame.none", ComponentKind::kPlcFirmware, 299, false, 0, 0.0};
  p.has_sabotage_payload = false;
  p.propagation_rate = 0.35;
  p.payload_rate = 0.05;
  p.stealth = 0.7;  // ~20MB of modules: noisier
  p.spoof_effectiveness = 0.0;
  p.validate();
  return p;
}

}  // namespace divsec::attack
