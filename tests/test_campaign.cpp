// Tests for attack/threat.h and attack/campaign.h — threat profiles and
// the node-level campaign simulator.
#include <gtest/gtest.h>

#include <vector>

#include "attack/campaign.h"

namespace divsec::attack {
namespace {

class CampaignFixture : public ::testing::Test {
 protected:
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  Scenario scope = make_scope_cooling_scenario();
};

TEST(ThreatProfiles, CanonicalProfilesValidate) {
  for (const ThreatProfile& p :
       {ThreatProfile::stuxnet(), ThreatProfile::duqu(), ThreatProfile::flame()}) {
    EXPECT_NO_THROW(p.validate());
    EXPECT_FALSE(p.channels.empty());
  }
  EXPECT_TRUE(ThreatProfile::stuxnet().has_sabotage_payload);
  EXPECT_FALSE(ThreatProfile::duqu().has_sabotage_payload);
  EXPECT_FALSE(ThreatProfile::flame().has_sabotage_payload);
  EXPECT_GT(ThreatProfile::stuxnet().spoof_effectiveness, 0.9);
}

TEST(ThreatProfiles, ValidationCatchesBadFields) {
  ThreatProfile p = ThreatProfile::stuxnet();
  p.stealth = 1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ThreatProfile::stuxnet();
  p.channels.clear();
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p = ThreatProfile::stuxnet();
  p.entry_rate = 0.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  DetectionModel d;
  d.host_detection_rate = -1.0;
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST_F(CampaignFixture, ScopeScenarioIsWellFormed) {
  EXPECT_NO_THROW(scope.validate(cat));
  EXPECT_EQ(scope.topology.node_count(), 11u);
  EXPECT_EQ(scope.target_plcs.size(), 2u);
  EXPECT_FALSE(scope.entry_nodes.empty());
  // Every PLC target really is a PLC with firmware assigned.
  for (auto plc : scope.target_plcs) {
    EXPECT_EQ(scope.topology.node(plc).role, net::Role::kPlc);
    EXPECT_TRUE(scope.software[plc].plc_firmware.has_value());
  }
}

TEST_F(CampaignFixture, ScenarioValidationCatchesErrors) {
  Scenario bad = scope;
  bad.software.pop_back();
  EXPECT_THROW(bad.validate(cat), std::invalid_argument);

  bad = scope;
  bad.software[0].os = 99;
  EXPECT_THROW(bad.validate(cat), std::out_of_range);

  bad = scope;
  bad.entry_nodes.clear();
  EXPECT_THROW(bad.validate(cat), std::invalid_argument);

  bad = scope;
  bad.target_plcs.push_back(0);  // a workstation, not a PLC
  EXPECT_THROW(bad.validate(cat), std::invalid_argument);

  bad = scope;
  bad.software[bad.target_plcs[0]].plc_firmware.reset();
  EXPECT_THROW(bad.validate(cat), std::invalid_argument);
}

TEST_F(CampaignFixture, DuplicateTargetPlcRejected) {
  // A repeated target would be owned twice: plcs_compromised would count
  // one PLC as two and double its alarm and sabotage rates.
  Scenario bad = scope;
  bad.target_plcs = {scope.target_plcs[0], scope.target_plcs[0]};
  EXPECT_THROW(bad.validate(cat), std::invalid_argument);
  EXPECT_THROW(CampaignSimulator(bad, ThreatProfile::stuxnet(), cat),
               std::invalid_argument);
}

TEST_F(CampaignFixture, RunIsDeterministicInSeed) {
  const CampaignSimulator sim(scope, ThreatProfile::stuxnet(), cat);
  stats::Rng r1(5), r2(5);
  const CampaignResult a = sim.run(r1);
  const CampaignResult b = sim.run(r2);
  EXPECT_EQ(a.time_to_attack, b.time_to_attack);
  EXPECT_EQ(a.time_to_detection, b.time_to_detection);
  EXPECT_EQ(a.hosts_compromised, b.hosts_compromised);
  EXPECT_EQ(a.plcs_compromised, b.plcs_compromised);
  EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST_F(CampaignFixture, CompromisedRatioCurveIsMonotoneAndBounded) {
  const CampaignSimulator sim(scope, ThreatProfile::stuxnet(), cat);
  const std::size_t nodes = scope.topology.node_count();
  std::vector<double> edges;
  for (double t = 50.0; t <= 2160.0; t += 50.0) edges.push_back(t);
  std::vector<std::uint32_t> counts(edges.size());
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    stats::Rng rng(seed);
    const CampaignResult r = sim.run(rng, {edges, counts});
    std::uint32_t prev = 0;
    for (const std::uint32_t c : counts) {
      EXPECT_GE(c, prev);  // no disinfection modelled
      EXPECT_LE(c, nodes);
      prev = c;
    }
    // The last edge is the horizon: it reads the final counts.
    EXPECT_EQ(counts.back(), r.hosts_compromised + r.plcs_compromised);
  }
}

TEST_F(CampaignFixture, EventsRecordedOnlyWhenRequested) {
  CampaignOptions opts;
  opts.record_events = false;
  const CampaignSimulator quiet(scope, ThreatProfile::stuxnet(), cat, {}, opts);
  stats::Rng r1(3);
  EXPECT_TRUE(quiet.run(r1).events.empty());

  opts.record_events = true;
  const CampaignSimulator loud(scope, ThreatProfile::stuxnet(), cat, {}, opts);
  stats::Rng r2(3);
  const auto events = loud.run(r2).events;
  EXPECT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].time, events[i - 1].time);
  // A node's first recorded event is a delivery (the only way in).
  EXPECT_TRUE(events.front().kind == CampaignEventKind::kDelivered ||
              events.front().kind == CampaignEventKind::kDeliveredLateral);
}

TEST(CampaignEvents, KindLabelsAreStable) {
  // The enum replaced the old per-event std::string labels; keep the
  // printable names identical to what traces used to show.
  EXPECT_STREQ(to_string(CampaignEventKind::kDelivered), "delivered");
  EXPECT_STREQ(to_string(CampaignEventKind::kDeliveredLateral),
               "delivered-lateral");
  EXPECT_STREQ(to_string(CampaignEventKind::kActivated), "activated");
  EXPECT_STREQ(to_string(CampaignEventKind::kRoot), "root");
  EXPECT_STREQ(to_string(CampaignEventKind::kPlcCompromised), "plc-compromised");
  EXPECT_STREQ(to_string(CampaignEventKind::kDeviceImpaired), "device-impaired");
  EXPECT_STREQ(to_string(CampaignEventKind::kFailedExploitDetected),
               "failed-exploit-detected");
  EXPECT_STREQ(to_string(CampaignEventKind::kHostIdsDetection),
               "host-ids-detection");
  EXPECT_STREQ(to_string(CampaignEventKind::kPlantAlarmDetection),
               "plant-alarm-detection");
}

TEST_F(CampaignFixture, DuquNeverImpairsDevices) {
  const CampaignSimulator sim(scope, ThreatProfile::duqu(), cat);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    stats::Rng rng(seed);
    const CampaignResult r = sim.run(rng);
    EXPECT_FALSE(r.time_to_attack.has_value());
    EXPECT_EQ(r.plcs_compromised, 0u);
  }
}

TEST_F(CampaignFixture, MonocultureFallsMoreOftenThanDiverseDeployment) {
  const ThreatProfile stuxnet = ThreatProfile::stuxnet();
  Scenario diverse = scope;
  // Harden the lot: patched/diverse OS everywhere, resilient PLCs, NGFW.
  for (auto& sw : diverse.software) {
    sw.os = cat.index_of(divers::ComponentKind::kOs, "os.linux_lts");
    if (sw.plc_firmware)
      sw.plc_firmware = cat.index_of(divers::ComponentKind::kPlcFirmware,
                                     "plc.abb_ac800");
  }
  diverse.firewall_variant =
      cat.index_of(divers::ComponentKind::kFirewallFirmware, "fw.ngfw");

  const CampaignSimulator mono_sim(scope, stuxnet, cat);
  const CampaignSimulator div_sim(diverse, stuxnet, cat);
  std::size_t mono_wins = 0, div_wins = 0;
  constexpr std::size_t kReps = 150;
  for (std::size_t i = 0; i < kReps; ++i) {
    stats::Rng r1(1000, i), r2(1000, i);
    if (mono_sim.run(r1).attack_succeeded()) ++mono_wins;
    if (div_sim.run(r2).attack_succeeded()) ++div_wins;
  }
  EXPECT_GT(mono_wins, 30u);            // the monoculture is soft
  EXPECT_LT(div_wins * 3, mono_wins);   // diversity cuts success sharply
}

TEST_F(CampaignFixture, DetectionHaltsAttackWhenConfigured) {
  // With an extremely loud detection model, essentially every run is
  // detected, and with halting enabled the attack should almost never
  // finish sabotage afterwards.
  DetectionModel loud;
  loud.host_detection_rate = 10.0;
  loud.alarm_detection_rate = 10.0;
  ThreatProfile noisy = ThreatProfile::stuxnet();
  noisy.stealth = 0.0;
  noisy.spoof_effectiveness = 0.0;
  CampaignOptions opts;
  opts.detection_halts_attack = true;
  const CampaignSimulator sim(scope, noisy, cat, loud, opts);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    stats::Rng rng(seed);
    const CampaignResult r = sim.run(rng);
    if (r.time_of_entry.has_value()) {
      ASSERT_TRUE(r.time_to_detection.has_value());
      EXPECT_FALSE(r.attack_succeeded());
    }
  }
}

TEST_F(CampaignFixture, HorizonIsRespected) {
  CampaignOptions opts;
  opts.t_max_hours = 100.0;
  opts.record_events = true;
  const CampaignSimulator sim(scope, ThreatProfile::stuxnet(), cat, {}, opts);
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    stats::Rng rng(seed);
    const CampaignResult r = sim.run(rng);
    if (r.time_to_attack) {
      EXPECT_LE(*r.time_to_attack, 100.0);
    }
    if (r.time_to_detection) {
      EXPECT_LE(*r.time_to_detection, 100.0);
    }
    for (const CampaignEvent& e : r.events) EXPECT_LE(e.time, 100.0);
  }
}

TEST_F(CampaignFixture, StealthDelaysDetection) {
  ThreatProfile quiet = ThreatProfile::stuxnet();
  quiet.stealth = 0.99;
  ThreatProfile noisy = ThreatProfile::stuxnet();
  noisy.stealth = 0.0;
  const CampaignSimulator qs(scope, quiet, cat);
  const CampaignSimulator ns(scope, noisy, cat);
  double q_sum = 0.0, n_sum = 0.0;
  constexpr std::size_t kReps = 100;
  constexpr double kHorizon = 2160.0;
  for (std::size_t i = 0; i < kReps; ++i) {
    stats::Rng r1(7, i), r2(7, i);
    q_sum += qs.run(r1).time_to_detection.value_or(kHorizon);
    n_sum += ns.run(r2).time_to_detection.value_or(kHorizon);
  }
  EXPECT_GT(q_sum, 1.5 * n_sum);
}

TEST_F(CampaignFixture, InvalidOptionsRejected) {
  CampaignOptions opts;
  opts.t_max_hours = 0.0;
  EXPECT_THROW(CampaignSimulator(scope, ThreatProfile::stuxnet(), cat, {}, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace divsec::attack
