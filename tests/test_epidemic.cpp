// Tests for net/epidemic.h — the mean-field propagation baseline.
#include <gtest/gtest.h>

#include "attack/campaign.h"
#include "net/epidemic.h"
#include "net/reachability_index.h"

namespace divsec::net {
namespace {

Topology chain(std::size_t n) {
  Topology t;
  for (std::size_t i = 0; i < n; ++i)
    t.add_node("n" + std::to_string(i), Zone::kCorporate, Role::kWorkstation);
  for (std::size_t i = 0; i + 1 < n; ++i) t.connect(i, i + 1);
  return t;
}

TEST(MeanFieldEpidemic, SeedStartsInfectedOthersClean) {
  const Topology t = chain(4);
  MeanFieldEpidemic epi(t, Firewall::permissive(), {Channel::kSmbShare}, {0});
  EXPECT_DOUBLE_EQ(epi.compromised_ratio(), 0.25);
}

TEST(MeanFieldEpidemic, SpreadIsMonotoneAndSaturates) {
  const Topology t = chain(5);
  MeanFieldEpidemic epi(t, Firewall::permissive(), {Channel::kSmbShare}, {0},
                        {0.2, 0.1});
  double prev = epi.compromised_ratio();
  for (int step = 0; step < 20; ++step) {
    epi.advance(10.0);
    const double r = epi.compromised_ratio();
    EXPECT_GE(r, prev - 1e-12);
    EXPECT_LE(r, 1.0);
    prev = r;
  }
  EXPECT_NEAR(prev, 1.0, 1e-3);  // SI with connected graph saturates
}

TEST(MeanFieldEpidemic, InfectionTravelsAlongTheChain) {
  // Infection only moves along links: a seed in the middle of the chain
  // has two clean neighbours, a seed at its end one, so the middle seed
  // spreads faster.
  const Topology t = chain(4);
  MeanFieldEpidemic end(t, Firewall::permissive(), {Channel::kSmbShare}, {0},
                        {0.1, 0.1});
  MeanFieldEpidemic middle(t, Firewall::permissive(), {Channel::kSmbShare}, {1},
                           {0.1, 0.1});
  end.advance(20.0);
  middle.advance(20.0);
  EXPECT_GT(middle.compromised_ratio(), end.compromised_ratio());
}

TEST(MeanFieldEpidemic, FirewallBlocksSpread) {
  Topology t;
  t.add_node("corp", Zone::kCorporate, Role::kWorkstation);
  t.add_node("ctl", Zone::kControl, Role::kScadaServer);
  t.connect(0, 1);
  // Deny-all firewall: the SMB edge never forms.
  MeanFieldEpidemic epi(t, Firewall(Action::kDeny), {Channel::kSmbShare}, {0},
                        {1.0, 0.1});
  epi.advance(100.0);
  EXPECT_DOUBLE_EQ(epi.compromised_ratio(), 0.5);  // only the seed
}

TEST(MeanFieldEpidemic, RatioCurveOnGrid) {
  const Topology t = chain(4);
  MeanFieldEpidemic epi(t, Firewall::permissive(), {Channel::kSmbShare}, {0},
                        {0.2, 0.1});
  const auto curve = epi.ratio_curve({0.0, 5.0, 20.0, 100.0});
  ASSERT_EQ(curve.size(), 4u);
  EXPECT_DOUBLE_EQ(curve[0], 0.25);
  for (std::size_t i = 1; i < curve.size(); ++i) EXPECT_GE(curve[i], curve[i - 1]);
  EXPECT_THROW(epi.ratio_curve({5.0, 1.0}), std::invalid_argument);
}

TEST(MeanFieldEpidemic, Validation) {
  const Topology t = chain(2);
  EXPECT_THROW(MeanFieldEpidemic(t, Firewall::permissive(), {Channel::kSmbShare},
                                 {}),
               std::invalid_argument);
  EXPECT_THROW(MeanFieldEpidemic(t, Firewall::permissive(), {Channel::kSmbShare},
                                 {9}),
               std::out_of_range);
  EXPECT_THROW(MeanFieldEpidemic(t, Firewall::permissive(), {Channel::kSmbShare},
                                 {0}, {-1.0, 0.1}),
               std::invalid_argument);
  MeanFieldEpidemic epi(t, Firewall::permissive(), {Channel::kSmbShare}, {0});
  EXPECT_THROW(epi.advance(-1.0), std::invalid_argument);
}

TEST(MeanFieldEpidemic, FinalEulerStepIsClampedToTheHorizon) {
  // advance() with a horizon that is not a multiple of dt must land on
  // the horizon exactly — no overshoot, no per-step rounding drift.
  const Topology t = chain(3);
  MeanFieldEpidemic epi(t, Firewall::permissive(), {Channel::kSmbShare}, {0},
                        {0.2, 0.1});
  // advance() must land on time + hours exactly, however ragged the
  // steps; expected values fold the same way the clock does.
  double expected = 0.0;
  for (const double step : {0.35, 0.07, 0.013, 1.9, 0.0001}) {
    epi.advance(step);
    expected += step;
    EXPECT_EQ(epi.now_hours(), expected) << "step " << step;
  }
  epi.advance(0.0);
  EXPECT_EQ(epi.now_hours(), expected);

  // A clamped partial step infects strictly less than a full dt step.
  // One Euler step only reaches the seed's neighbour, so the ratio moves
  // with that one node.
  MeanFieldEpidemic full(t, Firewall::permissive(), {Channel::kSmbShare}, {0},
                         {0.2, 0.1});
  MeanFieldEpidemic partial(t, Firewall::permissive(), {Channel::kSmbShare}, {0},
                            {0.2, 0.1});
  full.advance(0.1);
  partial.advance(0.05);
  EXPECT_LT(partial.compromised_ratio(), full.compromised_ratio());
  EXPECT_GT(partial.compromised_ratio(), 1.0 / 3.0);
}

TEST(MeanFieldEpidemic, SharedReachabilityIndexMatchesTopologyConstructor) {
  // The index overload (one reachability sweep shared with the campaign
  // layer) must integrate the exact same ODE.
  const attack::Scenario sc = attack::make_scope_cooling_scenario();
  const std::vector<Channel> channels{Channel::kUsb, Channel::kSmbShare,
                                      Channel::kPrintSpooler};
  const ReachabilityIndex index(sc.topology, sc.firewall);
  MeanFieldEpidemic via_topology(sc.topology, sc.firewall, channels,
                                 sc.entry_nodes, {0.02, 0.5});
  MeanFieldEpidemic via_index(index, channels, sc.entry_nodes, {0.02, 0.5});
  const std::vector<double> grid{0.0, 100.0, 500.0, 1234.5, 2160.0};
  EXPECT_EQ(via_topology.ratio_curve(grid), via_index.ratio_curve(grid));
  EXPECT_THROW(MeanFieldEpidemic(index, channels, {}, {0.02, 0.5}),
               std::invalid_argument);
}

TEST(MeanFieldEpidemic, TracksCampaignShapeOnScope) {
  // The mean-field curve with a fitted beta should bracket the campaign's
  // early growth: both saturate, mean-field from above (no detection or
  // exploit failure in the ODE).
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const attack::Scenario sc = attack::make_scope_cooling_scenario();
  MeanFieldEpidemic epi(sc.topology, sc.firewall,
                        {Channel::kUsb, Channel::kSmbShare, Channel::kPrintSpooler},
                        sc.entry_nodes, {0.02, 0.5});
  epi.advance(2160.0);
  const double mf_final = epi.compromised_ratio();
  const attack::CampaignSimulator sim(sc, attack::ThreatProfile::stuxnet(), cat);
  double mc_final = 0.0;
  constexpr std::size_t kReps = 60;
  for (std::size_t i = 0; i < kReps; ++i) {
    stats::Rng rng(5, i);
    const attack::CampaignResult r = sim.run(rng);
    mc_final += static_cast<double>(r.hosts_compromised + r.plcs_compromised);
  }
  mc_final /= static_cast<double>(kReps * sc.topology.node_count());
  // The ODE saturates at the host-reachable set; the campaign adds the
  // PLC payload path but loses runs to detection. They land close.
  EXPECT_NEAR(mf_final, mc_final, 0.15);
  EXPECT_GT(mc_final, 0.2);  // both show substantial spread
}

}  // namespace
}  // namespace divsec::net
