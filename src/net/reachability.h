// reachability.h — the reference definition of the attack-surface relation.
//
// can_reach answers whether traffic on a channel can go directly from one
// node to another (link + firewall policy). USB is special-cased: it needs
// no link, only mutual removable-media exposure, which is how Stuxnet
// crossed the air gap. The production paths read the same relation from
// a precomputed net::ReachabilityIndex; this function is the plain
// definition the index, its union CSR and the exact campaign oracle are
// tested against.
#pragma once

#include "net/firewall.h"
#include "net/topology.h"

namespace divsec::net {

/// True if `channel` traffic from node a can reach node b directly.
[[nodiscard]] bool can_reach(const Topology& topo, const Firewall& fw, NodeId a,
                             NodeId b, Channel channel);

}  // namespace divsec::net
