// fleet_campaign.cpp — an enterprise{N} preset driven end to end:
// generate the fleet, sweep attack campaigns over three diversity
// policies through the measurement engine, and report the paper's
// indicators (TTA / TTSF / compromised ratio) next to the mean-field
// epidemic baseline computed on the campaign's own reachability index.
//
//   ./example_fleet_campaign [nodes] [seed]      (default: 256 2013)
#include <cstdio>
#include <string>

#include "core/measurement.h"
#include "example_args.h"
#include "net/epidemic.h"
#include "net/reachability_index.h"
#include "scenario/presets.h"

using namespace divsec;

int main(int argc, char** argv) {
  const std::uint64_t nodes = examples::u64_arg(argc, argv, 1, "nodes", 256);
  const std::uint64_t seed = examples::u64_arg(argc, argv, 2, "seed", 2013);
  const std::string preset = "enterprise" + std::to_string(nodes);
  try {
    (void)scenario::enterprise_spec(nodes);  // checks the size, builds nothing
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: bad fleet size: %s\n", argv[0], e.what());
    return 2;
  }

  const divers::VariantCatalog catalog = divers::VariantCatalog::standard(2013);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();

  // One fleet, three deployment policies: the sweep cells differ only in
  // the seeded variant assignment. The fleet is generated once and the
  // arms share its topology, so the engine builds one reachability index.
  const scenario::VariantPolicy policies[] = {
      scenario::VariantPolicy::kMonoculture,
      scenario::VariantPolicy::kZoneStratified,
      scenario::VariantPolicy::kRandomPerNode,
  };
  const auto arms = scenario::make_preset_arms(preset, catalog, seed, policies);
  core::ScenarioSweepPlan plan;
  for (std::size_t i = 0; i < arms.size(); ++i)
    plan.cells.push_back({arms[i].scenario, seed + i});

  const attack::Scenario& fleet = plan.cells[0].scenario;
  std::printf("== %s: %zu nodes, %zu links, %zu entry nodes, %zu target PLCs ==\n",
              preset.c_str(), fleet.topology.node_count(),
              fleet.topology.link_count(), fleet.entry_nodes.size(),
              fleet.target_plcs.size());

  core::MeasurementOptions mo;
  mo.engine = core::Engine::kCampaign;
  mo.replications = 100;
  mo.seed = seed;
  const core::MeasurementEngine engine(catalog, stuxnet, mo);
  const auto summaries = engine.measure_scenarios(plan);

  std::printf("\n%-18s %-12s %-14s %-14s %-12s\n", "policy", "P(success)",
              "mean TTA (h)", "mean TTSF (h)", "final c(t)");
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& s = summaries[i];
    std::printf("%-18s %-12.3f %-14.1f %-14.1f %-12.4f\n",
                to_string(policies[i]), s.attack_success_probability(),
                s.tta.mean(), s.ttsf.mean(), s.final_ratio.mean());
  }

  // Mean-field SI baseline over the monoculture fleet's reachability,
  // sharing the campaign's precomputed index instead of indexing the
  // fleet again.
  const attack::CampaignSimulator sim(fleet, stuxnet, catalog);
  net::MeanFieldEpidemic epidemic(
      sim.reachability(),
      {net::Channel::kUsb, net::Channel::kSmbShare, net::Channel::kPrintSpooler},
      fleet.entry_nodes, {0.02, 0.5});
  epidemic.advance(mo.campaign.t_max_hours);
  std::printf("\nmean-field SI envelope at the horizon: c = %.4f\n",
              epidemic.compromised_ratio());
  std::printf(
      "\nThe worm model ignores exploit failure and detection, so it bounds\n"
      "what topology alone allows; each diversity policy pulls the campaign\n"
      "curve further below that envelope.\n");
  return 0;
}
