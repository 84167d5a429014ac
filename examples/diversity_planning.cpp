// diversity_planning.cpp — using the framework the way the paper intends:
// "a balanced approach between secure system design and diversification
// costs". Runs the ANOVA assessment to find which components matter, then
// the greedy cost-aware planner across a range of budgets, printing the
// resulting upgrade roadmaps.
//
//   ./diversity_planning [seed]
#include <cstdio>

#include "core/optimizer.h"
#include "core/pipeline.h"
#include "example_args.h"

using namespace divsec;

int main(int argc, char** argv) {
  const std::uint64_t seed = examples::u64_arg(argc, argv, 1, "seed", 2013);

  const divers::VariantCatalog catalog = divers::VariantCatalog::standard(seed);
  const core::SystemDescription desc = core::make_scope_description(catalog);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();

  core::MeasurementOptions mo;
  mo.engine = core::Engine::kStagedSan;
  mo.replications = 1000;
  mo.seed = seed;

  std::printf("== Diversity planning for the SCoPE cooling system ==\n");

  // Step A: which components explain attack-success variance? (paper's
  // assessment step; tells us where diversification budget should go.)
  core::PipelineOptions po;
  po.measurement = mo;
  po.measurement.replications = 300;
  const core::Pipeline pipeline(desc, stuxnet, po);
  const auto assessment =
      pipeline.run({"os.corporate", "os.control", "plc.firmware", "firewall"}, 2)
          .assessment;
  std::printf("\n[assessment] components by success-probability variance share:\n");
  for (const auto& e : assessment.ranking)
    std::printf("  %-16s eta^2 = %.3f  (p = %.4f)\n", e.name.c_str(),
                e.eta_squared, e.p_value);

  // Step B: cost-aware upgrade roadmaps under increasing budgets.
  for (double budget : {2.0, 5.0, 12.0}) {
    const core::UpgradePlan plan =
        core::greedy_diversification(desc, stuxnet, mo, budget);
    std::printf("\n[plan] budget %.1f: P[attack success] %.3f -> %.3f  (cost %.1f)\n",
                budget, plan.baseline_success_prob, plan.planned_success_prob,
                plan.total_extra_cost);
    for (const auto& s : plan.steps)
      std::printf("  upgrade %-16s %-18s -> %-20s (+%.1f cost, P -> %.3f)\n",
                  s.component.c_str(), s.from_variant.c_str(),
                  s.to_variant.c_str(), s.extra_cost, s.success_prob_after);
    if (plan.steps.empty()) std::printf("  (no upgrade fits the budget)\n");
  }

  std::printf(
      "\nReading: the first units of budget buy the largest risk reduction\n"
      "(the choke-point components found by the ANOVA); further spending\n"
      "has diminishing returns — the paper's cost-balance argument.\n");
  return 0;
}
