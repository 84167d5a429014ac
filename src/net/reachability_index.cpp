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

ReachabilityIndex::UnionInCsr ReachabilityIndex::union_in_csr(
    const std::vector<Channel>& channels) const {
  // Per (from zone, to zone): whether any link channel is allowed; and
  // whether kUsb is among the channels.
  bool usb = false;
  bool link[kZoneCount][kZoneCount]{};
  for (Channel c : channels) {
    if (c == Channel::kUsb) {
      usb = true;
      continue;
    }
    for (std::size_t za = 0; za < kZoneCount; ++za)
      for (std::size_t zb = 0; zb < kZoneCount; ++zb)
        link[za][zb] |= allow_[za][zb][static_cast<std::size_t>(c)];
  }
  UnionInCsr csr;
  csr.off.assign(n_ + 1, 0);
  std::vector<NodeId>& out = csr.edge;
  for (NodeId i = 0; i < n_; ++i) {
    const std::size_t start = out.size();
    const auto zi = static_cast<std::size_t>(zone_[i]);
    for (std::uint32_t k = adj_off_[i]; k < adj_off_[i + 1]; ++k)
      if (link[static_cast<std::size_t>(zone_[adj_[k]])][zi]) out.push_back(adj_[k]);
    if (usb && usb_rank_[i] != kUnexposed) {
      const std::size_t mid = out.size();
      for (std::uint32_t j : usb_)
        if (j != i) out.push_back(j);
      std::inplace_merge(out.begin() + static_cast<std::ptrdiff_t>(start),
                         out.begin() + static_cast<std::ptrdiff_t>(mid), out.end());
      out.erase(std::unique(out.begin() + static_cast<std::ptrdiff_t>(start),
                            out.end()),
                out.end());
    }
    csr.off[i + 1] = out.size();
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
