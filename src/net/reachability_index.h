// reachability_index.h — precomputed attack-surface queries in O(N + links).
//
// net::can_reach (reachability.h), the reference definition, answers "can
// a reach b on channel c" by walking the adjacency vector and the firewall
// rule list on every call. That is fine for one 11-node plant and hopeless
// for the campaign simulator's inner loop on a generated enterprise fleet. ReachabilityIndex keeps the same
// relation in the form net::can_reach reads it: a USB hop needs both ends
// exposed to removable media, a link hop needs a link plus a firewall
// verdict that depends only on (zone, zone, channel). So the index holds
// a sorted, deduplicated adjacency CSR, each node's zone, the evaluated
// zone table, the ascending list of USB-exposed nodes with each node's
// rank in it, and per link channel the adjacency rows split into allowed
// (scan) and denied (tunnel) targets.
//
// Build cost is O(zones^2 * channels) firewall evaluations plus
// O(nodes + links * channels) work and memory (plus a per-row sort).
// can_reach / linked are a zone-table check plus a binary search of one
// adjacency row; target_count / target are O(1). Instances are deeply
// immutable after construction and safe to share across executor threads.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/firewall.h"
#include "net/topology.h"

namespace divsec::net {

class ReachabilityIndex {
 public:
  /// Indexes the (from, to, channel) relation of `topo` under `fw`.
  ReachabilityIndex(const Topology& topo, const Firewall& fw);

  [[nodiscard]] std::size_t node_count() const noexcept { return n_; }

  /// Same relation as net::can_reach (link + policy; USB needs mutual
  /// removable-media exposure, no link). Precondition: a, b < node_count().
  [[nodiscard]] bool can_reach(NodeId a, NodeId b, Channel c) const noexcept {
    if (c == Channel::kUsb)
      return a != b && usb_rank_[a] != kUnexposed && usb_rank_[b] != kUnexposed;
    return allows(a, b, c) && linked(a, b);
  }

  /// Same relation as Topology::linked. Precondition: a, b < node_count().
  [[nodiscard]] bool linked(NodeId a, NodeId b) const noexcept {
    return std::binary_search(adj_.data() + adj_off_[a],
                              adj_.data() + adj_off_[a + 1],
                              static_cast<std::uint32_t>(b));
  }

  /// Flat in-edge CSR over the union relation: the sources j with
  /// can_reach(j, i, c) for ANY c of `channels` occupy
  /// edge[off[i] .. off[i + 1]), ascending. This is the adjacency
  /// MeanFieldEpidemic's Euler loop runs on.
  struct UnionInCsr {
    std::vector<std::size_t> off;  // node_count + 1 offsets
    std::vector<NodeId> edge;      // concatenated source lists
  };
  [[nodiscard]] UnionInCsr union_in_csr(const std::vector<Channel>& channels) const;

  /// Target lists of `a` on channel `c`. With `direct`, the targets
  /// can_reach(a, ·, c) accepts, ascending, never `a` itself. Without,
  /// the linked-but-policy-blocked targets, ascending: reachable only by
  /// winning a firewall-bypass (tunnelling) exploit, and always empty for
  /// kUsb — removable media cannot tunnel a firewall. The campaign
  /// kernel's thinned worm-scan process samples victims from these lists
  /// at the thinned Poisson rate instead of rejection-testing uniform
  /// (victim, channel) picks, which is exact by Poisson thinning and
  /// skips the ~95% of scans that cannot land.
  [[nodiscard]] std::size_t target_count(Channel c, NodeId a,
                                         bool direct) const noexcept {
    if (c == Channel::kUsb)
      return direct && usb_rank_[a] != kUnexposed ? usb_.size() - 1 : 0;
    const std::uint32_t allowed = split_[static_cast<std::size_t>(c)][a];
    return direct ? allowed : adj_off_[a + 1] - adj_off_[a] - allowed;
  }

  /// Entry k < target_count(c, a, direct) of the same list. The USB list
  /// is the exposed nodes minus `a`: entry k skips `a`'s own rank.
  [[nodiscard]] NodeId target(Channel c, NodeId a, std::size_t k,
                              bool direct) const noexcept {
    if (c == Channel::kUsb) return usb_[k + (k >= usb_rank_[a])];
    const std::size_t ch = static_cast<std::size_t>(c);
    return split_adj_[ch][adj_off_[a] + (direct ? 0 : split_[ch][a]) + k];
  }

  /// Firewall verdicts over (zone, zone, channel), flattened zone-major:
  /// all the constructor reads of the firewall.
  using Verdicts = std::array<bool, kZoneCount * kZoneCount * kChannelCount>;
  [[nodiscard]] static Verdicts verdicts(const Firewall& fw);

  /// The exact structural input the constructor reads, in canonical form:
  /// two topologies/firewalls with equal keys produce identical indexes,
  /// so an index built for one may be shared with the other.
  struct StructuralKey {
    std::size_t node_count = 0;
    /// Per node: zone in the low bits, usb_exposure in bit 7.
    std::vector<std::uint8_t> nodes;
    /// Undirected links as (min, max) pairs, sorted (link order and
    /// endpoint order in the Topology are not structural).
    std::vector<std::pair<NodeId, NodeId>> links;
    Verdicts allow{};

    bool operator==(const StructuralKey&) const = default;
  };
  [[nodiscard]] static StructuralKey structural_key(const Topology& topo,
                                                   const Firewall& fw);

 private:
  static constexpr std::uint32_t kUnexposed = ~std::uint32_t{0};

  [[nodiscard]] bool allows(NodeId a, NodeId b, Channel c) const noexcept {
    return allow_[static_cast<std::size_t>(zone_[a])]
                 [static_cast<std::size_t>(zone_[b])]
                 [static_cast<std::size_t>(c)];
  }

  std::size_t n_ = 0;
  std::vector<std::uint32_t> adj_off_;  // n_ + 1 offsets into adj_
  std::vector<std::uint32_t> adj_;      // sorted, deduplicated neighbor rows
  std::vector<Zone> zone_;
  bool allow_[kZoneCount][kZoneCount][kChannelCount]{};
  std::vector<std::uint32_t> usb_;       // USB-exposed nodes, ascending
  std::vector<std::uint32_t> usb_rank_;  // index into usb_, or kUnexposed
  /// Per link channel: each adjacency row reordered into its allowed
  /// targets, then its denied ones (each part ascending), and the
  /// allowed count per node. Empty for kUsb.
  std::array<std::vector<std::uint32_t>, kChannelCount> split_adj_;
  std::array<std::vector<std::uint32_t>, kChannelCount> split_;
};

}  // namespace divsec::net
