#include "net/topology.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <stdexcept>

namespace divsec::net {

namespace {

/// The name-table size that holds `nodes` ids at most half full.
std::size_t name_slots_for(std::size_t nodes) {
  return std::bit_ceil(std::max<std::size_t>(2 * nodes, 16));
}

}  // namespace

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
  if (id >= kNoNode) throw std::length_error("add_node: node ids exceed 32 bits");
  if (2 * (id + 1) > s.name_slots.size()) rehash_names(s, name_slots_for(id + 1));
  const std::size_t slot = name_slot(s, name);
  if (s.name_slots[slot] != kNoNode)
    throw std::invalid_argument("add_node: duplicate node name '" + name + "'");
  s.nodes.push_back(Node{std::move(name), zone, role, usb_exposure});
  s.adjacency.emplace_back();
  s.name_slots[slot] = static_cast<std::uint32_t>(id);
  return id;
}

void Topology::reserve(std::size_t nodes) {
  Storage& s = mutable_data();
  s.nodes.reserve(nodes);
  s.adjacency.reserve(nodes);
  if (name_slots_for(nodes) > s.name_slots.size())
    rehash_names(s, name_slots_for(nodes));
}

std::size_t Topology::name_slot(const Storage& s, std::string_view name) {
  const std::size_t mask = s.name_slots.size() - 1;
  for (std::size_t i = std::hash<std::string_view>{}(name) & mask;; i = (i + 1) & mask) {
    const std::uint32_t id = s.name_slots[i];
    if (id == kNoNode || s.nodes[id].name == name) return i;
  }
}

void Topology::rehash_names(Storage& s, std::size_t slots) {
  s.name_slots.assign(slots, kNoNode);
  for (NodeId id = 0; id < s.nodes.size(); ++id)
    s.name_slots[name_slot(s, s.nodes[id].name)] = static_cast<std::uint32_t>(id);
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

NodeId Topology::node_by_name(std::string_view name) const {
  const Storage& s = data();
  if (!s.name_slots.empty())
    if (const std::uint32_t id = s.name_slots[name_slot(s, name)]; id != kNoNode)
      return id;
  throw std::out_of_range("node_by_name: no node named '" + std::string(name) + "'");
}

std::vector<NodeId> Topology::nodes_with_role(Role r) const {
  const std::vector<Node>& nodes = data().nodes;
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes.size(); ++i)
    if (nodes[i].role == r) out.push_back(i);
  return out;
}

}  // namespace divsec::net
