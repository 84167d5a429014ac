// Tests for net/reachability_index.h — the precomputed reachability
// index must agree with the per-call reference relation (net::can_reach,
// Topology::linked) on every (node, node, channel) triple, and its target
// lists must list that relation row by row, hand-built or generated.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "attack/campaign.h"
#include "net/reachability.h"
#include "net/reachability_index.h"
#include "scenario/presets.h"

namespace divsec::net {
namespace {

/// Target list k = 0 .. target_count - 1 of `a` on `c`, materialized.
std::vector<NodeId> listed(const ReachabilityIndex& index, Channel c, NodeId a,
                           bool direct) {
  std::vector<NodeId> out;
  for (std::size_t k = 0; k < index.target_count(c, a, direct); ++k)
    out.push_back(index.target(c, a, k, direct));
  return out;
}

void expect_index_matches_reference(const Topology& topo, const Firewall& fw) {
  const ReachabilityIndex index(topo, fw);
  ASSERT_EQ(index.node_count(), topo.node_count());
  std::array<std::vector<NodeId>, kChannelCount> reach, tunnel;
  for (NodeId a = 0; a < topo.node_count(); ++a) {
    for (std::size_t ch = 0; ch < kChannelCount; ++ch) {
      reach[ch].clear();
      tunnel[ch].clear();
    }
    for (NodeId b = 0; b < topo.node_count(); ++b) {
      const bool linked = a != b && topo.linked(a, b);
      EXPECT_EQ(index.linked(a, b), linked) << "linked(" << a << "," << b << ")";
      for (std::size_t ch = 0; ch < kChannelCount; ++ch) {
        const Channel channel = static_cast<Channel>(ch);
        const bool expected = can_reach(topo, fw, a, b, channel);
        EXPECT_EQ(index.can_reach(a, b, channel), expected)
            << "can_reach(" << a << "," << b << "," << to_string(channel) << ")";
        if (expected)
          reach[ch].push_back(b);
        else if (linked && channel != Channel::kUsb)
          tunnel[ch].push_back(b);  // linked but denied by policy
      }
    }
    // The target lists are the same relation, ascending: reachable for
    // direct, linked-but-denied otherwise (never anything on USB).
    for (std::size_t ch = 0; ch < kChannelCount; ++ch) {
      const Channel channel = static_cast<Channel>(ch);
      EXPECT_EQ(listed(index, channel, a, true), reach[ch])
          << "direct targets of " << a << " on " << to_string(channel);
      EXPECT_EQ(listed(index, channel, a, false), tunnel[ch])
          << "tunnel targets of " << a << " on " << to_string(channel);
    }
  }
}

TEST(ReachabilityIndex, MatchesReferenceOnScopePlant) {
  const attack::Scenario sc = attack::make_scope_cooling_scenario();
  expect_index_matches_reference(sc.topology, sc.firewall);
}

TEST(ReachabilityIndex, MatchesReferenceOnPermissivePolicy) {
  const attack::Scenario sc = attack::make_scope_cooling_scenario();
  expect_index_matches_reference(sc.topology, Firewall::permissive());
}

TEST(ReachabilityIndex, MatchesReferenceOnGeneratedFleet) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const auto fleet = scenario::make_preset("plant_medium", cat, 7);
  expect_index_matches_reference(fleet.scenario.topology, fleet.scenario.firewall);
}

TEST(ReachabilityIndex, MatchesReferenceOnHandBuiltEdgeCases) {
  // A link given twice (it must collapse to one target), USB exposure on
  // the first and the last node (the ends of the exposed list, where the
  // USB row's rank skip is easiest to get wrong), and an isolated node
  // with no exposure (every list empty).
  Topology topo;
  const NodeId ws = topo.add_node("ws", Zone::kCorporate, Role::kWorkstation, true);
  const NodeId srv = topo.add_node("srv", Zone::kCorporate, Role::kServer);
  const NodeId mirror = topo.add_node("mirror", Zone::kDmz, Role::kHistorian);
  const NodeId eng = topo.add_node("eng", Zone::kControl, Role::kEngineering, true);
  topo.add_node("hmi", Zone::kControl, Role::kHmi);  // isolated, unexposed
  const NodeId plc = topo.add_node("plc", Zone::kField, Role::kPlc);
  const NodeId gw = topo.add_node("gw", Zone::kField, Role::kSensorGateway, true);
  topo.connect(ws, srv);
  topo.connect(srv, ws);  // duplicate, reversed
  topo.connect(srv, mirror);
  topo.connect(mirror, eng);
  topo.connect(eng, plc);
  topo.connect(eng, gw);
  expect_index_matches_reference(topo, Firewall::segmented_ics());
  expect_index_matches_reference(topo, Firewall::permissive());

  const ReachabilityIndex index(topo, Firewall::permissive());
  EXPECT_EQ(listed(index, Channel::kUsb, ws, true), (std::vector<NodeId>{eng, gw}));
  EXPECT_EQ(listed(index, Channel::kUsb, gw, true), (std::vector<NodeId>{ws, eng}));
  EXPECT_EQ(listed(index, Channel::kSmbShare, ws, true), std::vector<NodeId>{srv});
}

TEST(ReachabilityIndex, DISABLED_MatchesReferenceOnEnterprise16384) {
  // The benchmark fleet (seed 2013): 16384 nodes, every triple and every
  // target list. Nightly only — it walks all 2.7e8 node pairs.
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const auto fleet = scenario::make_preset("enterprise16384", cat, 2013);
  expect_index_matches_reference(fleet.scenario.topology, fleet.scenario.firewall);
}

/// union_in_csr is the adjacency MeanFieldEpidemic runs on. Its row i
/// must list, ascending, every j with can_reach(j, i, c) for some channel
/// c of the set: the reference definition, checked pair by pair.
void expect_union_in_csr_matches_can_reach(const Topology& topo, const Firewall& fw,
                                           const std::vector<Channel>& channels) {
  const ReachabilityIndex index(topo, fw);
  const auto csr = index.union_in_csr(channels);
  const std::size_t n = topo.node_count();
  ASSERT_EQ(csr.off.size(), n + 1);
  ASSERT_EQ(csr.off.front(), 0u);
  ASSERT_EQ(csr.off.back(), csr.edge.size());
  for (NodeId i = 0; i < n; ++i) {
    std::vector<NodeId> expected;
    for (NodeId j = 0; j < n; ++j)
      for (Channel c : channels)
        if (can_reach(topo, fw, j, i, c)) {
          expected.push_back(j);
          break;
        }
    const std::vector<NodeId> got(
        csr.edge.begin() + static_cast<std::ptrdiff_t>(csr.off[i]),
        csr.edge.begin() + static_cast<std::ptrdiff_t>(csr.off[i + 1]));
    EXPECT_EQ(got, expected) << "in-edges of node " << i;
  }
}

TEST(UnionInCsr, MatchesCanReachOnScopeCoolingAndPlantMedium) {
  const std::vector<Channel> channels{Channel::kUsb, Channel::kSmbShare,
                                      Channel::kHttp};
  // The paper plant: its USB-exposed nodes form a clique on kUsb.
  const attack::Scenario sc = attack::make_scope_cooling_scenario();
  std::size_t exposed = 0;
  for (NodeId i = 0; i < sc.topology.node_count(); ++i)
    exposed += sc.topology.node(i).usb_exposure ? 1 : 0;
  ASSERT_GE(exposed, 3u);
  expect_union_in_csr_matches_can_reach(sc.topology, sc.firewall, channels);

  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const auto made = scenario::make_preset("plant_medium", cat, 17,
                                          scenario::VariantPolicy::kMonoculture);
  expect_union_in_csr_matches_can_reach(made.scenario.topology,
                                        made.scenario.firewall, channels);
}

TEST(ReachabilityIndex, CampaignSimulatorExposesItsIndex) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const attack::Scenario sc = attack::make_scope_cooling_scenario();
  const attack::CampaignSimulator sim(sc, attack::ThreatProfile::stuxnet(), cat);
  const ReachabilityIndex& index = sim.reachability();
  EXPECT_EQ(index.node_count(), sc.topology.node_count());
  // USB between the two exposed workstations, no modbus corp -> field.
  const NodeId ws1 = sc.topology.node_by_name("corp.ws1");
  const NodeId ws2 = sc.topology.node_by_name("corp.ws2");
  const NodeId plc = sc.topology.node_by_name("fld.plc-chiller");
  EXPECT_TRUE(index.can_reach(ws1, ws2, Channel::kUsb));
  EXPECT_FALSE(index.can_reach(ws1, plc, Channel::kModbus));
}

}  // namespace
}  // namespace divsec::net
