// attack_tree.h — AND/OR attack trees.
//
// One of the three modeling formalisms the paper names ("Bayesian
// networks, Petri-nets, or attack trees"). Leaves are basic attack steps
// with a success probability; internal nodes combine children with AND
// (all required) or OR (any one suffices). The tree answers the overall
// success probability of the attack.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace divsec::attack {

class AttackTree {
 public:
  using NodeId = std::size_t;

  enum class GateKind : std::uint8_t { kLeaf, kAnd, kOr };

  /// Add a basic attack step.
  NodeId add_leaf(std::string name, double probability);

  /// Add an AND gate over existing children (all must succeed).
  NodeId add_and(std::string name, std::vector<NodeId> children);

  /// Add an OR gate over existing children (any suffices).
  NodeId add_or(std::string name, std::vector<NodeId> children);

  void set_root(NodeId id);
  [[nodiscard]] NodeId root() const;
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] const std::string& name(NodeId id) const { return nodes_.at(id).name; }
  [[nodiscard]] GateKind kind(NodeId id) const { return nodes_.at(id).kind; }

  /// Success probability assuming independent leaves: AND multiplies,
  /// OR complements (1 - prod(1 - p)).
  [[nodiscard]] double success_probability() const;

 private:
  struct Node {
    std::string name;
    GateKind kind = GateKind::kLeaf;
    double probability = 0.0;  // leaves
    std::vector<NodeId> children;
  };

  [[nodiscard]] double probability_of(NodeId id) const;
  void check_acyclic() const;

  std::vector<Node> nodes_;
  NodeId root_ = static_cast<NodeId>(-1);
};

/// The canonical Stuxnet-shaped tree over the paper's five stages, with
/// per-stage leaf probabilities supplied by the caller (typically from
/// VariantCatalog::exploit_success for a given configuration).
[[nodiscard]] AttackTree make_staged_attack_tree(double p_delivery, double p_activation,
                                                 double p_privesc, double p_propagation,
                                                 double p_plc_payload);

}  // namespace divsec::attack
