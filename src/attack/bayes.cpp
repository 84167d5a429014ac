#include "attack/bayes.h"

#include <cmath>
#include <stdexcept>

namespace divsec::attack {

BayesianNetwork::NodeId BayesianNetwork::add_node(std::string name,
                                                  std::size_t states,
                                                  std::vector<NodeId> parents,
                                                  std::vector<double> cpt) {
  if (name.empty()) throw std::invalid_argument("add_node: empty name");
  if (states < 2) throw std::invalid_argument("add_node: need >= 2 states");
  std::size_t parent_combos = 1;
  for (NodeId p : parents) {
    if (p >= nodes_.size())
      throw std::out_of_range("add_node: parent must precede child");
    parent_combos *= nodes_[p].states;
  }
  if (cpt.size() != parent_combos * states)
    throw std::invalid_argument("add_node: CPT size mismatch for '" + name + "'");
  for (std::size_t a = 0; a < parent_combos; ++a) {
    double sum = 0.0;
    for (std::size_t s = 0; s < states; ++s) {
      const double v = cpt[a * states + s];
      if (v < 0.0 || v > 1.0)
        throw std::invalid_argument("add_node: CPT entry outside [0,1]");
      sum += v;
    }
    if (std::fabs(sum - 1.0) > 1e-9)
      throw std::invalid_argument("add_node: CPT row of '" + name +
                                  "' does not sum to 1");
  }
  nodes_.push_back(Node{std::move(name), states, std::move(parents), std::move(cpt)});
  return nodes_.size() - 1;
}

BayesianNetwork::NodeId BayesianNetwork::node_by_name(const std::string& name) const {
  for (NodeId n = 0; n < nodes_.size(); ++n)
    if (nodes_[n].name == name) return n;
  throw std::out_of_range("node_by_name: no node named '" + name + "'");
}

double BayesianNetwork::node_prob(NodeId n, std::span<const int> assignment) const {
  const Node& node = nodes_[n];
  std::size_t idx = 0;
  for (std::size_t pi = node.parents.size(); pi-- > 0;) {
    const NodeId p = node.parents[pi];
    idx = idx * nodes_[p].states + static_cast<std::size_t>(assignment[p]);
  }
  return node.cpt[idx * node.states + static_cast<std::size_t>(assignment[n])];
}

double BayesianNetwork::joint(std::span<const int> assignment) const {
  if (assignment.size() != nodes_.size())
    throw std::invalid_argument("joint: assignment arity mismatch");
  for (NodeId n = 0; n < nodes_.size(); ++n)
    if (assignment[n] < 0 || static_cast<std::size_t>(assignment[n]) >= nodes_[n].states)
      throw std::out_of_range("joint: state out of range");
  double p = 1.0;
  for (NodeId n = 0; n < nodes_.size(); ++n) p *= node_prob(n, assignment);
  return p;
}

void BayesianNetwork::check_enumerable() const {
  double combos = 1.0;
  for (const auto& n : nodes_) combos *= static_cast<double>(n.states);
  if (combos > 4e6)
    throw std::logic_error(
        "BayesianNetwork: joint too large for enumeration inference");
}

std::vector<double> BayesianNetwork::posterior(NodeId target,
                                               std::span<const Evidence> evidence) const {
  if (target >= nodes_.size()) throw std::out_of_range("posterior: invalid target");
  check_enumerable();
  for (const auto& e : evidence) {
    if (e.node >= nodes_.size()) throw std::out_of_range("posterior: bad evidence node");
    if (e.state < 0 || static_cast<std::size_t>(e.state) >= nodes_[e.node].states)
      throw std::out_of_range("posterior: bad evidence state");
  }
  std::vector<double> dist(nodes_[target].states, 0.0);
  std::vector<int> assignment(nodes_.size(), 0);
  // Odometer over the full joint.
  for (;;) {
    bool consistent = true;
    for (const auto& e : evidence)
      if (assignment[e.node] != e.state) {
        consistent = false;
        break;
      }
    if (consistent) {
      double p = 1.0;
      for (NodeId n = 0; n < nodes_.size() && p > 0.0; ++n)
        p *= node_prob(n, assignment);
      dist[static_cast<std::size_t>(assignment[target])] += p;
    }
    // Advance the odometer.
    std::size_t n = 0;
    for (; n < nodes_.size(); ++n) {
      if (static_cast<std::size_t>(++assignment[n]) < nodes_[n].states) break;
      assignment[n] = 0;
    }
    if (n == nodes_.size()) break;
  }
  double total = 0.0;
  for (double v : dist) total += v;
  if (total <= 0.0)
    throw std::invalid_argument("posterior: evidence has probability zero");
  for (double& v : dist) v /= total;
  return dist;
}

double BayesianNetwork::marginal(NodeId node, int state) const {
  const auto dist = posterior(node, {});
  return dist.at(static_cast<std::size_t>(state));
}

namespace {

/// P[stage transition completes within its budget AND before its own
/// detection]: the winner of an exponential race, truncated at T.
double stage_success_within(const StageTransition& t, double extra_detection,
                            double budget_hours) {
  const double adv = t.attempt_rate * t.success_probability;
  const double det = t.detection_rate + extra_detection;
  if (adv <= 0.0) return 0.0;
  const double total = adv + det;
  return (adv / total) * -std::expm1(-total * budget_hours);
}

/// P[detection fires during a stage's activity window].
double stage_detection_within(const StageTransition& t, double extra_detection,
                              double budget_hours) {
  const double det = t.detection_rate + extra_detection;
  return -std::expm1(-det * budget_hours);
}

}  // namespace

double AttackBayesianNetwork::impairment_probability() const {
  return network.marginal(stage_node.back(), 1);
}

AttackBayesianNetwork make_attack_bayesian_network(const StagedAttackModel& model,
                                                   double horizon_hours) {
  if (!(horizon_hours > 0.0))
    throw std::invalid_argument("make_attack_bayesian_network: horizon must be > 0");
  model.validate();
  AttackBayesianNetwork out;
  const double budget = horizon_hours / static_cast<double>(kStageCount);

  for (std::size_t i = 0; i < kStageCount; ++i) {
    const double extra = (i == kStageCount - 1) ? model.impairment_detection_rate : 0.0;
    const double p = stage_success_within(model.transitions[i], extra, budget);
    std::vector<double> cpt;
    if (i == 0) {
      cpt = {1.0 - p, p};
    } else {
      // parent (previous stage) = 0: cannot even attempt.
      cpt = {1.0, 0.0, 1.0 - p, p};
    }
    std::vector<BayesianNetwork::NodeId> parents;
    if (i > 0) parents.push_back(out.stage_node[i - 1]);
    out.stage_node[i] = out.network.add_node(
        std::string("stage.") + to_string(static_cast<Stage>(i)), 2,
        std::move(parents), std::move(cpt));
  }

  // Detected: noisy-OR over the stages that were actually attempted.
  // A stage is attempted iff its predecessor completed (stage 0 always).
  std::vector<BayesianNetwork::NodeId> parents(out.stage_node.begin(),
                                               out.stage_node.end());
  const std::size_t combos = std::size_t{1} << kStageCount;
  std::vector<double> cpt(combos * 2);
  for (std::size_t a = 0; a < combos; ++a) {
    double p_none = 1.0;
    for (std::size_t i = 0; i < kStageCount; ++i) {
      const bool attempted = (i == 0) || ((a >> (i - 1)) & 1);
      if (!attempted) continue;
      const double extra =
          (i == kStageCount - 1) ? model.impairment_detection_rate : 0.0;
      p_none *= 1.0 - stage_detection_within(model.transitions[i], extra, budget);
    }
    cpt[a * 2 + 0] = p_none;
    cpt[a * 2 + 1] = 1.0 - p_none;
  }
  out.detected_node =
      out.network.add_node("detected", 2, std::move(parents), std::move(cpt));
  return out;
}

}  // namespace divsec::attack
