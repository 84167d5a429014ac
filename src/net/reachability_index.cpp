#include "net/reachability_index.h"

#include <algorithm>

namespace divsec::net {

ReachabilityIndex::ReachabilityIndex(const Topology& topo, const Firewall& fw)
    : n_(topo.node_count()) {
  // Adjacency CSR: bucket both directions of every link, then sort and
  // deduplicate each row (Topology is a multigraph; the relation is not).
  adj_off_.assign(n_ + 1, 0);
  for (const Link& l : topo.links()) {
    ++adj_off_[l.a + 1];
    ++adj_off_[l.b + 1];
  }
  for (std::size_t i = 0; i < n_; ++i) adj_off_[i + 1] += adj_off_[i];
  adj_.resize(adj_off_[n_]);
  {
    std::vector<std::uint32_t> cursor(adj_off_.begin(), adj_off_.end() - 1);
    for (const Link& l : topo.links()) {
      adj_[cursor[l.a]++] = static_cast<std::uint32_t>(l.b);
      adj_[cursor[l.b]++] = static_cast<std::uint32_t>(l.a);
    }
  }
  std::uint32_t kept = 0;
  for (NodeId a = 0; a < n_; ++a) {
    std::uint32_t* first = adj_.data() + adj_off_[a];
    std::uint32_t* last = adj_.data() + adj_off_[a + 1];
    std::sort(first, last);
    last = std::unique(first, last);
    adj_off_[a] = kept;  // row a + 1 still starts at adj_off_[a + 1]
    for (const std::uint32_t* p = first; p != last; ++p) adj_[kept++] = *p;
  }
  adj_off_[n_] = kept;
  adj_.resize(kept);

  zone_.resize(n_);
  usb_rank_.assign(n_, kUnexposed);
  for (NodeId i = 0; i < n_; ++i) {
    const Node& node = topo.node(i);
    zone_[i] = node.zone;
    if (node.usb_exposure) {
      usb_rank_[i] = static_cast<std::uint32_t>(usb_.size());
      usb_.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Policy is a pure (zone, zone, channel) relation: evaluate the rule
  // list once per triple instead of once per node pair.
  const Verdicts v = verdicts(fw);
  std::copy(v.begin(), v.end(), &allow_[0][0][0]);

  // Scan / tunnel target lists of each link channel: every adjacency row
  // partitioned into its allowed targets, then its denied ones.
  for (std::size_t ch = 0; ch < kChannelCount; ++ch) {
    const Channel c = static_cast<Channel>(ch);
    if (c == Channel::kUsb) continue;  // removable media travel without links
    std::vector<std::uint32_t>& out = split_adj_[ch];
    std::vector<std::uint32_t>& split = split_[ch];
    out.resize(adj_.size());
    split.resize(n_);
    for (NodeId a = 0; a < n_; ++a) {
      const std::uint32_t* first = adj_.data() + adj_off_[a];
      const std::uint32_t* last = adj_.data() + adj_off_[a + 1];
      std::uint32_t k = adj_off_[a];
      for (const std::uint32_t* p = first; p != last; ++p)
        if (allows(a, *p, c)) out[k++] = *p;
      split[a] = k - adj_off_[a];
      for (const std::uint32_t* p = first; p != last; ++p)
        if (!allows(a, *p, c)) out[k++] = *p;
    }
  }
}

ReachabilityIndex::ChannelUnion ReachabilityIndex::channel_union(
    const std::vector<Channel>& channels) const noexcept {
  ChannelUnion u;
  for (Channel c : channels) {
    if (c == Channel::kUsb) {
      u.usb = true;
      continue;
    }
    for (std::size_t za = 0; za < kZoneCount; ++za)
      for (std::size_t zb = 0; zb < kZoneCount; ++zb)
        u.link[za][zb] |= allow_[za][zb][static_cast<std::size_t>(c)];
  }
  return u;
}

void ReachabilityIndex::union_row(NodeId i, const ChannelUnion& u, bool incoming,
                                  std::vector<NodeId>& out) const {
  const std::size_t start = out.size();
  const auto zi = static_cast<std::size_t>(zone_[i]);
  for (std::uint32_t k = adj_off_[i]; k < adj_off_[i + 1]; ++k) {
    const auto zj = static_cast<std::size_t>(zone_[adj_[k]]);
    if (incoming ? u.link[zj][zi] : u.link[zi][zj]) out.push_back(adj_[k]);
  }
  if (u.usb && usb_rank_[i] != kUnexposed) {
    const std::size_t mid = out.size();
    for (std::uint32_t j : usb_)
      if (j != i) out.push_back(j);
    std::inplace_merge(out.begin() + static_cast<std::ptrdiff_t>(start),
                       out.begin() + static_cast<std::ptrdiff_t>(mid), out.end());
    out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(start),
                          out.end()),
              out.end());
  }
}

std::vector<std::vector<NodeId>> ReachabilityIndex::union_graph(
    const std::vector<Channel>& channels) const {
  const ChannelUnion u = channel_union(channels);
  std::vector<std::vector<NodeId>> out(n_);
  for (NodeId a = 0; a < n_; ++a) union_row(a, u, false, out[a]);
  return out;
}

ReachabilityIndex::UnionInCsr ReachabilityIndex::union_in_csr(
    const std::vector<Channel>& channels) const {
  const ChannelUnion u = channel_union(channels);
  UnionInCsr csr;
  csr.off.assign(n_ + 1, 0);
  for (NodeId i = 0; i < n_; ++i) {
    union_row(i, u, true, csr.edge);
    csr.off[i + 1] = csr.edge.size();
  }
  return csr;
}

ReachabilityIndex::StructuralKey ReachabilityIndex::structural_key(
    const Topology& topo, const Firewall& fw) {
  StructuralKey key;
  key.node_count = topo.node_count();
  key.nodes.reserve(key.node_count);
  for (NodeId i = 0; i < key.node_count; ++i) {
    const Node& node = topo.node(i);
    key.nodes.push_back(static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(node.zone) |
        (node.usb_exposure ? 0x80u : 0u)));
  }
  key.links.reserve(topo.links().size());
  for (const Link& l : topo.links())
    key.links.emplace_back(std::min(l.a, l.b), std::max(l.a, l.b));
  std::sort(key.links.begin(), key.links.end());
  key.links.erase(std::unique(key.links.begin(), key.links.end()),
                  key.links.end());
  key.allow = verdicts(fw);
  return key;
}

ReachabilityIndex::Verdicts ReachabilityIndex::verdicts(const Firewall& fw) {
  Verdicts out{};
  std::size_t i = 0;
  for (std::size_t za = 0; za < kZoneCount; ++za)
    for (std::size_t zb = 0; zb < kZoneCount; ++zb)
      for (std::size_t ch = 0; ch < kChannelCount; ++ch)
        out[i++] = fw.allows(static_cast<Zone>(za), static_cast<Zone>(zb),
                             static_cast<Channel>(ch));
  return out;
}

}  // namespace divsec::net
