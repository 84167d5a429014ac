// firewall.h — zone-based firewall policy.
//
// First-match-wins ordered rule list over (source zone, destination zone,
// channel), with a configurable default action. The paper lists the
// firewall among the components whose diversity matters; variant-specific
// behaviour (rule-bypass probability for a given exploit) is layered on
// top by the attack module — this class is the policy mechanism itself.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/topology.h"

namespace divsec::net {

enum class Action : std::uint8_t { kAllow, kDeny };

struct FirewallRule {
  /// nullopt matches any zone / any channel.
  std::optional<Zone> from;
  std::optional<Zone> to;
  std::optional<Channel> channel;
  Action action = Action::kDeny;
  std::string comment;
};

class Firewall {
 public:
  explicit Firewall(Action default_action = Action::kDeny)
      : default_action_(default_action) {}

  /// Append a rule (evaluated in insertion order; first match wins).
  void add_rule(FirewallRule rule) { rules_.push_back(std::move(rule)); }

  [[nodiscard]] bool allows(Zone from, Zone to, Channel channel) const noexcept;

  [[nodiscard]] std::size_t rule_count() const noexcept { return rules_.size(); }
  [[nodiscard]] const FirewallRule& rule(std::size_t i) const { return rules_.at(i); }
  [[nodiscard]] Action default_action() const noexcept { return default_action_; }

  /// A permissive policy (flat network): everything allowed.
  [[nodiscard]] static Firewall permissive();

  /// A realistic segmented ICS policy:
  ///  - corporate <-> dmz: http only
  ///  - dmz -> control: http only (historian replication)
  ///  - control <-> field: modbus + project-file only
  ///  - everything else denied.
  [[nodiscard]] static Firewall segmented_ics();

 private:
  Action default_action_;
  std::vector<FirewallRule> rules_;
};

}  // namespace divsec::net
