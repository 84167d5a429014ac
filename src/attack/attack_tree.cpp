#include "attack/attack_tree.h"

#include <stdexcept>

namespace divsec::attack {

AttackTree::NodeId AttackTree::add_leaf(std::string name, double probability) {
  if (probability < 0.0 || probability > 1.0)
    throw std::invalid_argument("add_leaf: probability must be in [0,1]");
  Node n;
  n.name = std::move(name);
  n.kind = GateKind::kLeaf;
  n.probability = probability;
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

AttackTree::NodeId AttackTree::add_and(std::string name, std::vector<NodeId> children) {
  if (children.empty()) throw std::invalid_argument("add_and: no children");
  for (NodeId c : children)
    if (c >= nodes_.size()) throw std::out_of_range("add_and: invalid child");
  Node n;
  n.name = std::move(name);
  n.kind = GateKind::kAnd;
  n.children = std::move(children);
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

AttackTree::NodeId AttackTree::add_or(std::string name, std::vector<NodeId> children) {
  if (children.empty()) throw std::invalid_argument("add_or: no children");
  for (NodeId c : children)
    if (c >= nodes_.size()) throw std::out_of_range("add_or: invalid child");
  Node n;
  n.name = std::move(name);
  n.kind = GateKind::kOr;
  n.children = std::move(children);
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

void AttackTree::set_root(NodeId id) {
  if (id >= nodes_.size()) throw std::out_of_range("set_root: invalid node");
  root_ = id;
  check_acyclic();
}

AttackTree::NodeId AttackTree::root() const {
  if (root_ == static_cast<NodeId>(-1))
    throw std::logic_error("AttackTree: root not set");
  return root_;
}

void AttackTree::check_acyclic() const {
  // Children must have smaller ids than their parent (construction order),
  // which makes cycles impossible; verify anyway for defense in depth.
  for (NodeId i = 0; i < nodes_.size(); ++i)
    for (NodeId c : nodes_[i].children)
      if (c >= i) throw std::logic_error("AttackTree: forward edge (cycle risk)");
}

double AttackTree::probability_of(NodeId id) const {
  const Node& n = nodes_[id];
  switch (n.kind) {
    case GateKind::kLeaf: return n.probability;
    case GateKind::kAnd: {
      double p = 1.0;
      for (NodeId c : n.children) p *= probability_of(c);
      return p;
    }
    case GateKind::kOr: {
      double q = 1.0;
      for (NodeId c : n.children) q *= 1.0 - probability_of(c);
      return 1.0 - q;
    }
  }
  return 0.0;
}

double AttackTree::success_probability() const { return probability_of(root()); }

AttackTree make_staged_attack_tree(double p_delivery, double p_activation,
                                   double p_privesc, double p_propagation,
                                   double p_plc_payload) {
  AttackTree t;
  // Delivery alternatives (Stuxnet's entry vectors).
  const auto usb = t.add_leaf("delivery.usb", p_delivery);
  const auto share = t.add_leaf("delivery.share", p_delivery * 0.6);
  const auto spooler = t.add_leaf("delivery.spooler", p_delivery * 0.4);
  const auto delivery = t.add_or("stage.initial", {usb, share, spooler});

  const auto act = t.add_leaf("stage.activated", p_activation);
  const auto root = t.add_leaf("stage.root-access", p_privesc);

  const auto hop_it = t.add_leaf("propagation.it-to-control", p_propagation);
  const auto hop_proj = t.add_leaf("propagation.project-file", p_propagation * 0.8);
  const auto prop = t.add_or("stage.propagation", {hop_it, hop_proj});

  const auto payload = t.add_leaf("stage.device-impairment", p_plc_payload);

  const auto top = t.add_and("attack.sabotage", {delivery, act, root, prop, payload});
  t.set_root(top);
  return t;
}

}  // namespace divsec::attack
