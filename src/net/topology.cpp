#include "net/topology.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace divsec::net {

const Topology::Storage& Topology::empty_storage() noexcept {
  static const Storage empty;
  return empty;
}

Topology::Storage& Topology::mutable_data() {
  if (!storage_)
    storage_ = std::make_shared<Storage>();
  else if (storage_.use_count() > 1)
    storage_ = std::make_shared<Storage>(*storage_);
  return *storage_;
}

NodeId Topology::add_node(std::string name, Zone zone, Role role, bool usb_exposure) {
  if (name.empty()) throw std::invalid_argument("add_node: empty name");
  Storage& s = mutable_data();
  const NodeId id = s.nodes.size();
  if (!s.name_index.emplace(name, id).second)
    throw std::invalid_argument("add_node: duplicate node name '" + name + "'");
  s.nodes.push_back(Node{std::move(name), zone, role, usb_exposure});
  s.adjacency.emplace_back();
  return id;
}

void Topology::reserve(std::size_t nodes) {
  Storage& s = mutable_data();
  s.nodes.reserve(nodes);
  s.adjacency.reserve(nodes);
  s.name_index.reserve(nodes);
}

void Topology::connect(NodeId a, NodeId b) {
  if (a >= node_count() || b >= node_count())
    throw std::out_of_range("connect: invalid node id");
  if (a == b) throw std::invalid_argument("connect: self-link rejected");
  if (linked(a, b)) return;  // idempotent
  Storage& s = mutable_data();
  s.links.push_back(Link{a, b});
  s.adjacency[a].push_back(b);
  s.adjacency[b].push_back(a);
}

bool Topology::linked(NodeId a, NodeId b) const {
  if (a >= node_count() || b >= node_count())
    throw std::out_of_range("linked: invalid node id");
  const auto& adj = data().adjacency[a];
  return std::find(adj.begin(), adj.end(), b) != adj.end();
}

NodeId Topology::node_by_name(const std::string& name) const {
  const auto& index = data().name_index;
  const auto it = index.find(name);
  if (it == index.end())
    throw std::out_of_range("node_by_name: no node named '" + name + "'");
  return it->second;
}

std::vector<NodeId> Topology::nodes_with_role(Role r) const {
  const std::vector<Node>& nodes = data().nodes;
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes.size(); ++i)
    if (nodes[i].role == r) out.push_back(i);
  return out;
}

}  // namespace divsec::net
