// bayes.h — discrete Bayesian networks for attack modeling.
//
// The third formalism the paper names ("Bayesian networks, Petri-nets, or
// attack trees"). Nodes are discrete variables with conditional
// probability tables; inference is exact (enumeration over the joint,
// adequate for attack-sized networks of <= ~20 binary nodes).
//
// make_attack_bayesian_network() compiles a StagedAttackModel into the
// classic attack-BN shape: a chain of per-stage "stage completed within
// its time budget" variables plus a noisy-OR Detected variable, so the
// same attack formalization can be queried statically (P[impaired], or
// any posterior over the stage and Detected nodes) where the SAN gives
// trajectories.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "attack/stages.h"

namespace divsec::attack {

class BayesianNetwork {
 public:
  using NodeId = std::size_t;

  /// Add a node with `states` possible values and the given parents
  /// (which must already exist — the network is built in topological
  /// order). `cpt` holds P[node = s | parent assignment], laid out with
  /// the node's state fastest, then parents in mixed radix (parent 0
  /// fastest): cpt[assignment_index * states + s]. Each conditional
  /// distribution must sum to 1.
  NodeId add_node(std::string name, std::size_t states,
                  std::vector<NodeId> parents, std::vector<double> cpt);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] const std::string& name(NodeId n) const { return nodes_.at(n).name; }
  [[nodiscard]] std::size_t states(NodeId n) const { return nodes_.at(n).states; }

  /// Exact posterior P[target | evidence] by enumeration.
  struct Evidence {
    NodeId node;
    int state;
  };
  [[nodiscard]] std::vector<double> posterior(NodeId target,
                                              std::span<const Evidence> evidence = {}) const;

  /// Marginal P[node = state].
  [[nodiscard]] double marginal(NodeId node, int state) const;

 private:
  struct Node {
    std::string name;
    std::size_t states;
    std::vector<NodeId> parents;
    std::vector<double> cpt;
  };
  [[nodiscard]] double node_prob(NodeId n, std::span<const int> assignment) const;
  void check_enumerable() const;

  std::vector<Node> nodes_;
};

/// Attack BN compiled from the staged model. Binary stage variables
/// S0..S4 ("stage transition completed within its time budget"), chained;
/// Detected with a noisy-OR over the stages' detection exposure.
/// `horizon_hours` is split evenly across stages for the per-stage budget
/// (a deliberate static abstraction; see DESIGN.md).
struct AttackBayesianNetwork {
  BayesianNetwork network;
  std::array<BayesianNetwork::NodeId, kStageCount> stage_node{};
  BayesianNetwork::NodeId detected_node = 0;

  /// P[final stage completed] — the static analogue of attack success.
  [[nodiscard]] double impairment_probability() const;
};

[[nodiscard]] AttackBayesianNetwork make_attack_bayesian_network(
    const StagedAttackModel& model, double horizon_hours);

}  // namespace divsec::attack
