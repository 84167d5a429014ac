#include "net/reachability.h"

namespace divsec::net {

bool can_reach(const Topology& topo, const Firewall& fw, NodeId a, NodeId b,
               Channel channel) {
  if (a == b) return false;
  const Node& na = topo.node(a);
  const Node& nb = topo.node(b);
  if (channel == Channel::kUsb) {
    // Removable media travel with operators, not over links.
    return na.usb_exposure && nb.usb_exposure;
  }
  if (!topo.linked(a, b)) return false;
  return fw.allows(na.zone, nb.zone, channel);
}

}  // namespace divsec::net
