// Tests for the SoA campaign kernel and its per-event-class RNG
// facade (attack/campaign_rng.h), plus the engine's shared lazy-context
// path. Four contracts are pinned here:
//
//  1. The draw-order contract: class ids are fixed, the facade's words
//     are exactly the base Rng::stream(id) words in per-class call
//     order, however the classes interleave.
//  2. The kernel through the engine is bit-identical for any thread
//     count. Its absolute bits are pinned by
//     tests/test_golden_digests.cpp, and its law is checked against the
//     exact chain solution in tests/test_campaign_oracle.cpp.
//  3. Shared contexts: structurally identical topologies share one
//     ReachabilityIndex, contexts are built lazily per scheduling round
//     (peak residency far below the cell count), and none of it changes
//     a single bit of the summaries.
//  4. Per-thread scratch: a run borrows its per-node state and pools
//     from its thread's scratch and hands them back clean, so a run's
//     result never depends on what that thread ran before — a fleet of
//     any size, a plant, a failed run.
//  5. Kernel-filled curve bins: the engine's samples carry exactly the
//     bins and final ratio that the public run()'s step curve gives.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <thread>

#include "attack/campaign.h"
#include "attack/campaign_rng.h"
#include "core/measurement.h"
#include "net/reachability_index.h"
#include "obs/metrics.h"
#include "scenario/presets.h"
#include "sim/executor.h"
#include "stats/rng.h"
#include "step_curve_reference.h"

namespace divsec {
namespace {

using attack::CampaignOptions;
using attack::CampaignRng;
using attack::CampaignResult;
using attack::CampaignSimulator;
using attack::DrawClass;

// --- 1. The draw-order contract ---------------------------------------

TEST(CampaignRngContract, ClassIdsArePinned) {
  // The numeric ids ARE the contract (they select Rng::stream(id));
  // renumbering them silently changes every campaign result.
  EXPECT_EQ(static_cast<int>(DrawClass::kEntry), 0);
  EXPECT_EQ(static_cast<int>(DrawClass::kActivation), 1);
  EXPECT_EQ(static_cast<int>(DrawClass::kPrivesc), 2);
  EXPECT_EQ(static_cast<int>(DrawClass::kPropagation), 3);
  EXPECT_EQ(static_cast<int>(DrawClass::kPayload), 4);
  EXPECT_EQ(static_cast<int>(DrawClass::kSabotage), 5);
  EXPECT_EQ(static_cast<int>(DrawClass::kHostIds), 6);
  EXPECT_EQ(static_cast<int>(DrawClass::kAlarm), 7);
  EXPECT_EQ(attack::kDrawClassCount, 8u);
}

TEST(CampaignRngContract, FacadeWordsAreTheBaseClassStreams) {
  const stats::Rng base(2013, 7);
  CampaignRng facade(base);
  for (std::size_t c = 0; c < attack::kDrawClassCount; ++c) {
    stats::Rng direct = base.stream(c);
    for (int i = 0; i < 200; ++i)
      ASSERT_EQ(facade.next(static_cast<DrawClass>(c)), direct())
          << "class " << c << " word " << i;
  }
}

TEST(CampaignRngContract, FacadeDerivationConsumesNoBaseState) {
  stats::Rng base(99, 3);
  stats::Rng untouched(99, 3);
  { CampaignRng facade(base); (void)facade.next(DrawClass::kEntry); }
  // The facade worked off derived streams only: base still yields the
  // same next word as a never-touched twin.
  EXPECT_EQ(base(), untouched());
}

TEST(CampaignRngContract, InterleavedClassWordsAreTheBaseClassStreams) {
  const stats::Rng base(42, 0);
  CampaignRng facade(base);
  std::array<stats::Rng, attack::kDrawClassCount> direct;
  for (std::size_t c = 0; c < attack::kDrawClassCount; ++c)
    direct[c] = base.stream(c);
  // An irregular class pattern: each class's words must still be its own
  // stream's, in call order, whatever the other classes drew in between.
  for (std::size_t i = 0; i < 500; ++i) {
    const std::size_t c = (i * i + 3 * i) % attack::kDrawClassCount;
    ASSERT_EQ(facade.next(static_cast<DrawClass>(c)), direct[c]())
        << "draw " << i << " class " << c;
  }
}

TEST(CampaignRngContract, ZigguratSamplesExpOne) {
  const stats::Rng base(7, 7);
  CampaignRng rng(base);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  int beyond_one = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exp_std(DrawClass::kEntry);
    ASSERT_GE(x, 0.0);
    sum += x;
    sum2 += x * x;
    if (x > 1.0) ++beyond_one;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  // Exp(1): mean 1, variance 1, P(X > 1) = 1/e. 5 sigma bands.
  EXPECT_NEAR(mean, 1.0, 5.0 / std::sqrt(static_cast<double>(n)));
  EXPECT_NEAR(var, 1.0, 0.05);
  EXPECT_NEAR(static_cast<double>(beyond_one) / n, std::exp(-1.0),
              5.0 * std::sqrt(std::exp(-1.0) * (1 - std::exp(-1.0)) / n));
}

// --- 2. The kernel through the engine ----------------------------------

void expect_same_result(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.time_of_entry, b.time_of_entry);
  EXPECT_EQ(a.first_root, b.first_root);
  EXPECT_EQ(a.first_plc_compromise, b.first_plc_compromise);
  EXPECT_EQ(a.time_to_attack, b.time_to_attack);
  EXPECT_EQ(a.time_to_detection, b.time_to_detection);
  EXPECT_EQ(a.hosts_compromised, b.hosts_compromised);
  EXPECT_EQ(a.plcs_compromised, b.plcs_compromised);
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.compromised_ratio.size(), b.compromised_ratio.size());
  for (std::size_t i = 0; i < a.compromised_ratio.size(); ++i) {
    EXPECT_EQ(a.compromised_ratio[i].first, b.compromised_ratio[i].first);
    EXPECT_EQ(a.compromised_ratio[i].second, b.compromised_ratio[i].second);
  }
}

class SoaKernelFixture : public ::testing::Test {
 protected:
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
};

void expect_bit_identical(const core::IndicatorSummary& a,
                          const core::IndicatorSummary& b) {
  EXPECT_EQ(a.tta.mean(), b.tta.mean());
  EXPECT_EQ(a.tta.variance(), b.tta.variance());
  EXPECT_EQ(a.ttsf.mean(), b.ttsf.mean());
  EXPECT_EQ(a.final_ratio.mean(), b.final_ratio.mean());
  EXPECT_EQ(a.final_ratio.variance(), b.final_ratio.variance());
  EXPECT_EQ(a.tta_censored, b.tta_censored);
  EXPECT_EQ(a.ttsf_censored, b.ttsf_censored);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.ratio_curve, b.ratio_curve);
}

TEST_F(SoaKernelFixture, EngineBitIdenticalAcrossThreads) {
  core::ScenarioSweepPlan plan;
  plan.cells.push_back(
      {scenario::make_preset("enterprise128", cat, 17,
                             scenario::VariantPolicy::kMonoculture)
           .scenario,
       101});
  plan.cells.push_back(
      {scenario::make_preset("enterprise128", cat, 17,
                             scenario::VariantPolicy::kZoneStratified)
           .scenario,
       202});

  std::vector<core::IndicatorSummary> reference;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    sim::Executor ex{threads};
    core::MeasurementOptions mo;
    mo.replications = 12;
    mo.executor = &ex;
    const auto got =
        core::MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan);
    if (reference.empty()) {
      reference = got;
      continue;
    }
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " cell=" << c);
      expect_bit_identical(reference[c], got[c]);
    }
  }
}

// --- 3. Shared contexts ------------------------------------------------

TEST_F(SoaKernelFixture, SharedReachabilityIndexGivesIdenticalRuns) {
  const auto made = scenario::make_preset("plant_medium", cat, 17,
                                          scenario::VariantPolicy::kMonoculture);
  const CampaignSimulator own(made.scenario, stuxnet, cat);
  const CampaignSimulator shared(made.scenario, stuxnet, cat, {}, {},
                                 own.shared_reachability());
  EXPECT_EQ(&own.reachability(), &shared.reachability());
  for (std::uint64_t rep = 0; rep < 8; ++rep) {
    stats::Rng ra(1, rep), rb(1, rep);
    expect_same_result(own.run(ra), shared.run(rb));
  }
}

TEST_F(SoaKernelFixture, SharedIndexRejectsWrongTopologySize) {
  const auto small = scenario::make_preset("plant_small", cat, 17,
                                           scenario::VariantPolicy::kMonoculture);
  const auto medium = scenario::make_preset("plant_medium", cat, 17,
                                            scenario::VariantPolicy::kMonoculture);
  const CampaignSimulator donor(small.scenario, stuxnet, cat);
  EXPECT_THROW(CampaignSimulator(medium.scenario, stuxnet, cat, {}, {},
                                 donor.shared_reachability()),
               std::invalid_argument);
}

TEST(StructuralKey, EqualForStructurallyIdenticalInputsOnly) {
  const auto cat = divers::VariantCatalog::standard(2013);
  // Same preset + seed, different variant policy: identical structure
  // (policies only change software assignments, not topology/firewall).
  const auto a = scenario::make_preset("plant_medium", cat, 17,
                                       scenario::VariantPolicy::kMonoculture);
  const auto b = scenario::make_preset("plant_medium", cat, 17,
                                       scenario::VariantPolicy::kZoneStratified);
  const auto c = scenario::make_preset("plant_medium", cat, 18,
                                       scenario::VariantPolicy::kMonoculture);
  const auto ka = net::ReachabilityIndex::structural_key(a.scenario.topology,
                                                         a.scenario.firewall);
  const auto kb = net::ReachabilityIndex::structural_key(b.scenario.topology,
                                                         b.scenario.firewall);
  const auto kc = net::ReachabilityIndex::structural_key(c.scenario.topology,
                                                         c.scenario.firewall);
  EXPECT_TRUE(ka == kb);
  // Different generator seed: different link structure.
  EXPECT_FALSE(ka == kc);
}

TEST_F(SoaKernelFixture, LazyContextsShareIndexesAndBoundResidency) {
  // 64 copies of one generated scenario: the whole sweep must build
  // exactly one reachability index, one context per cell, and never hold
  // more than a few rounds' worth of contexts alive at once.
  const auto fleet = scenario::make_preset("plant_small", cat, 17,
                                           scenario::VariantPolicy::kMonoculture);
  core::ScenarioSweepPlan plan;
  for (std::uint64_t c = 0; c < 64; ++c)
    plan.cells.push_back({fleet.scenario, 1000 + c});
  sim::Executor serial{1};
  core::MeasurementOptions mo;
  mo.replications = 4;
  mo.executor = &serial;
  // The bespoke ContextStats struct became the core.context.* metrics;
  // the registry is process-cumulative, so read per-sweep deltas by
  // zeroing it before each measured call.
  obs::reset();
  const auto summaries =
      core::MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan);
  ASSERT_EQ(summaries.size(), 64u);
#if DIVSEC_OBS
  {
    const obs::Snapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter("core.context.built"), 64u);
    EXPECT_EQ(snap.counter("core.context.reach_builds"), 1u);
    EXPECT_EQ(snap.counter("core.context.reach_dedup_hits"), 63u);
    // Rounds are 4 x threads tasks; with one task per cell the live set
    // stays around a round's width — far below the 64-cell fleet.
    EXPECT_LE(snap.gauge("core.context.peak_live"), 16u);
  }
#endif

  // Two distinct topologies in one sweep: two indexes, no more.
  plan.cells.push_back(
      {scenario::make_preset("plant_medium", cat, 17,
                             scenario::VariantPolicy::kMonoculture)
           .scenario,
       9999});
  obs::reset();
  const auto with_medium =
      core::MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan);
  ASSERT_EQ(with_medium.size(), 65u);
#if DIVSEC_OBS
  {
    const obs::Snapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter("core.context.built"), 65u);
    EXPECT_EQ(snap.counter("core.context.reach_builds"), 2u);
  }
#endif
}

TEST_F(SoaKernelFixture, IndexesAreSharedByTopologyIdentity) {
  // Cells share an index when they hold copies of one topology value.
  // Two separately generated topologies are equal but distinct values,
  // so each gets its own index; the results do not depend on it.
  const auto made = [&] {
    return scenario::make_preset("plant_small", cat, 17,
                                 scenario::VariantPolicy::kMonoculture)
        .scenario;
  };
  core::ScenarioSweepPlan plan;
  plan.cells.push_back({made(), 1});
  plan.cells.push_back({made(), 2});
  ASSERT_NE(plan.cells[0].scenario.topology.identity(),
            plan.cells[1].scenario.topology.identity());
  sim::Executor serial{1};
  core::MeasurementOptions mo;
  mo.replications = 4;
  mo.executor = &serial;
  obs::reset();
  const auto separate = core::MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan);
#if DIVSEC_OBS
  EXPECT_EQ(obs::snapshot().counter("core.context.reach_builds"), 2u);
#endif
  plan.cells[1].scenario = plan.cells[0].scenario;
  obs::reset();
  const auto shared = core::MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan);
#if DIVSEC_OBS
  EXPECT_EQ(obs::snapshot().counter("core.context.reach_builds"), 1u);
#endif
  for (std::size_t c = 0; c < 2; ++c) expect_bit_identical(separate[c], shared[c]);
}

TEST_F(SoaKernelFixture, LazySharedPathChangesNoBits) {
  // The pre-refactor eager path is gone; its bits must not be. The
  // sweep's summaries must equal per-cell direct simulation — context
  // construction shares indexes and consumes no randomness, so
  // replication r of cell c is still exactly Rng(cell.seed, r).
  core::ScenarioSweepPlan plan;
  for (std::uint64_t c = 0; c < 6; ++c)
    plan.cells.push_back(
        {scenario::make_preset("plant_small", cat, 17,
                               scenario::VariantPolicy::kMonoculture)
             .scenario,
         500 + c});
  sim::Executor ex{4};
  core::MeasurementOptions mo;
  mo.replications = 10;
  mo.executor = &ex;
  std::vector<std::vector<core::IndicatorSample>> samples(plan.cell_count());
  (void)core::MeasurementEngine(cat, stuxnet, mo)
      .measure_scenarios(plan, [&samples](std::size_t c,
                                          std::span<const core::IndicatorSample> s) {
        samples[c].assign(s.begin(), s.end());
      });
  for (std::size_t c = 0; c < plan.cell_count(); ++c) {
    const CampaignSimulator direct(plan.cells[c].scenario, stuxnet, cat);
    ASSERT_EQ(samples[c].size(), 10u);
    for (std::uint64_t rep = 0; rep < 10; ++rep) {
      stats::Rng rng(plan.cells[c].seed, rep);
      const auto r = direct.run(rng);
      EXPECT_EQ(samples[c][rep].final_ratio, r.compromised_ratio.back().second)
          << "cell " << c << " rep " << rep;
    }
  }
}

// --- 4. Per-thread scratch ---------------------------------------------

TEST_F(SoaKernelFixture, ScratchReuseAcrossFleetSizesChangesNoBits) {
  CampaignOptions opt;
  opt.detection_halts_attack = false;  // longer runs touch more nodes
  const auto make = [&](const char* preset) {
    return CampaignSimulator(
        scenario::make_preset(preset, cat, 17,
                              scenario::VariantPolicy::kMonoculture)
            .scenario,
        stuxnet, cat, {}, opt);
  };
  const CampaignSimulator big = make("enterprise1024");
  const CampaignSimulator small = make("scope_cooling");
  const CampaignSimulator mid = make("enterprise64");
  // Big -> small -> big, and seeds that come back after other runs: a
  // node left dirty by one run would change a later run on this thread.
  const std::vector<std::pair<const CampaignSimulator*, std::uint64_t>> steps =
      {{&big, 0}, {&small, 0}, {&big, 1}, {&mid, 0}, {&big, 0}, {&small, 0},
       {&mid, 1}, {&big, 1},   {&small, 1}, {&mid, 0}, {&big, 2}, {&small, 1}};
  std::size_t most_owned = 0;
  std::size_t most_big_plcs = 0;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const auto& [sim, rep] = steps[i];
    stats::Rng here(2013, rep);
    const CampaignResult got = sim->run(here);
    // The same run on a thread whose scratch has never been used.
    CampaignResult fresh;
    std::thread([&fresh, sim = sim, rep = rep] {
      stats::Rng rng(2013, rep);
      fresh = sim->run(rng);
    }).join();
    SCOPED_TRACE(::testing::Message() << "step " << i);
    expect_same_result(got, fresh);
    most_owned = std::max(most_owned, got.hosts_compromised);
    if (i > 0 && sim == &big)
      most_big_plcs = std::max(most_big_plcs, got.plcs_compromised);
  }
  // The big runs really did leave many nodes to restore.
  EXPECT_GE(most_owned, 20u);
  // ... and a reused-scratch big run captured >= 2 PLCs, so the unowned
  // pool was overridden (swap-removed) and had positions to restore.
  EXPECT_GE(most_big_plcs, 2u);
}

TEST_F(SoaKernelFixture, MixedSizeSweepBitIdenticalAcrossThreads) {
  // Worker threads pick up blocks of differently sized cells in
  // schedule-dependent order, so each thread's scratch serves a mix of
  // fleets; the summaries must still equal the 1-thread sweep's.
  core::ScenarioSweepPlan plan;
  std::uint64_t seed = 300;
  for (const char* preset : {"enterprise1024", "scope_cooling", "enterprise64",
                             "enterprise256", "scope_cooling", "enterprise1024"})
    plan.cells.push_back({scenario::make_preset(preset, cat, 17,
                                                scenario::VariantPolicy::kMonoculture)
                              .scenario,
                          seed++});
  std::vector<core::IndicatorSummary> reference;
  for (const std::size_t threads : {1u, 4u}) {
    sim::Executor ex{threads};
    core::MeasurementOptions mo;
    mo.replications = 64;
    mo.replication_block = 16;
    mo.executor = &ex;
    const auto got =
        core::MeasurementEngine(cat, stuxnet, mo).measure_scenarios(plan);
    if (reference.empty()) {
      reference = got;
      continue;
    }
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t c = 0; c < got.size(); ++c) {
      SCOPED_TRACE(::testing::Message()
                   << "threads=" << threads << " cell=" << c);
      expect_bit_identical(reference[c], got[c]);
    }
  }
}

// --- 5. Curve bins filled by the kernel --------------------------------

TEST_F(SoaKernelFixture, KernelCurveBinsEqualTheBinnedStepCurve) {
  // The engine never builds a replication's step curve: the kernel's
  // per-compromise hook writes the bin counts in place, and the final
  // ratio is (hosts + PLCs) / nodes. Both must equal, bit for bit, what
  // the public run()'s step curve gives under the reference binning.
  const double horizon = CampaignOptions{}.t_max_hours;
  const std::vector<double> edges = core::curve_bin_edges(horizon, 64);
  constexpr std::uint64_t kReps = 10000;
  for (const char* preset :
       {"scope_cooling", "enterprise256", "brownfield:nodes=96"}) {
    SCOPED_TRACE(preset);
    const CampaignSimulator sim(
        scenario::make_preset(preset, cat, 17,
                              scenario::VariantPolicy::kRandomPerNode)
            .scenario,
        stuxnet, cat);
    const double nodes =
        static_cast<double>(sim.scenario().topology.node_count());
    core::IndicatorSample s;
    std::vector<std::uint32_t> want(edges.size());
    std::uint64_t mismatches = 0, curves_with_steps = 0;
    for (std::uint64_t rep = 0; rep < kReps; ++rep) {
      core::campaign_sample(sim, horizon, edges, stats::Rng(99, rep), s);
      stats::Rng rng(99, rep);
      const CampaignResult r = sim.run(rng);
      core::reference::sample_step_counts(r.compromised_ratio, edges, nodes,
                                          want);
      const bool same = s.ratio_counts == want &&
                        s.final_ratio == r.compromised_ratio.back().second &&
                        s.ratio_scale == static_cast<std::uint64_t>(nodes);
      if (!same && mismatches++ == 0)
        ADD_FAILURE() << "first mismatch at rep " << rep;
      if (r.compromised_ratio.size() > 2) ++curves_with_steps;
    }
    attack::CampaignSimulator::flush_telemetry();
    EXPECT_EQ(mismatches, 0u);
    // Not vacuous: many runs had curves of several steps.
    EXPECT_GT(curves_with_steps, kReps / 10);
  }
}

TEST_F(SoaKernelFixture, KernelCurveBinsRejectMismatchedSizes) {
  const CampaignSimulator sim(attack::make_scope_cooling_scenario(), stuxnet,
                              cat);
  const std::vector<double> edges = core::curve_bin_edges(100.0, 4);
  std::vector<std::uint32_t> counts(3);
  stats::Rng rng(1, 0);
  EXPECT_THROW((void)sim.run(rng, {edges, counts}), std::invalid_argument);
}

}  // namespace
}  // namespace divsec
