// quickstart.cpp — minimal end-to-end tour of the divsec API.
//
// Builds the standard variant catalog and the SCoPE cooling-system
// description, measures the paper's three security indicators for the
// monoculture and for a diversified configuration under a Stuxnet-like
// threat, then runs the full three-step pipeline (attack modeling ->
// DoE & measurement -> ANOVA assessment) on a small component subset.
//
//   ./quickstart [seed]
#include <iostream>
#include <optional>
#include <string>

#include "core/configuration.h"
#include "core/indicators.h"
#include "core/pipeline.h"
#include "example_args.h"

using namespace divsec;

namespace {

void print_summary(const char* label, const core::IndicatorSummary& s) {
  // The censored-at-horizon means are biased low when many runs censor;
  // print the product-limit (censoring-aware) estimates next to them.
  const auto median = [](const std::optional<double>& m) {
    return m ? std::to_string(*m) : std::string(">horizon");
  };
  std::cout << "  " << label << "\n"
            << "    attack success probability: " << s.attack_success_probability()
            << "\n"
            << "    mean TTA  (h, censored at " << s.horizon_hours
            << "): " << s.tta.mean() << "  (censored " << s.tta_censored << "/"
            << s.replications << ")\n"
            << "      censor-aware: restricted mean " << s.tta_event.restricted_mean
            << " h, median " << median(s.tta_event.median) << "\n"
            << "    mean TTSF (h, censored at " << s.horizon_hours
            << "): " << s.ttsf.mean() << "  (censored " << s.ttsf_censored << "/"
            << s.replications << ")\n"
            << "      censor-aware: restricted mean " << s.ttsf_event.restricted_mean
            << " h, median " << median(s.ttsf_event.median) << "\n"
            << "    mean final compromised ratio: " << s.final_ratio.mean() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = examples::u64_arg(argc, argv, 1, "seed", 2013);

  // 1. Substrate: component variants with real (toy-ISA) binaries.
  const divers::VariantCatalog catalog = divers::VariantCatalog::standard(seed);
  const core::SystemDescription scope = core::make_scope_description(catalog);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();

  core::MeasurementOptions mo;
  mo.engine = core::Engine::kCampaign;
  mo.replications = 200;
  mo.seed = seed;

  std::cout << "== divsec quickstart: SCoPE cooling system vs " << stuxnet.name
            << " ==\n\n";

  // 2. Indicators: monoculture vs a diversified deployment.
  const core::Configuration mono = scope.baseline_configuration();
  core::Configuration diverse = mono;
  // Diversify the control-zone OS, the PLC firmware, and the firewall.
  diverse.variant[1] = 2;  // os.control -> os.linux_lts
  diverse.variant[2] = 3;  // plc.firmware -> plc.abb_ac800
  diverse.variant[4] = 1;  // firewall -> fw.ngfw

  std::cout << "[indicators]\n";
  print_summary("monoculture (all baseline variants):",
                core::measure_indicators(scope, mono, stuxnet, mo));
  print_summary("diversified (control OS + PLC firmware + firewall):",
                core::measure_indicators(scope, diverse, stuxnet, mo));
  std::cout << "  extra cost of the diversified configuration: "
            << scope.extra_cost(diverse) << " (baseline-variant units)\n\n";

  // 3. The paper's three-step pipeline on a 3-component subset.
  core::PipelineOptions po;
  po.measurement = mo;
  po.measurement.engine = core::Engine::kStagedSan;  // fast abstraction
  po.measurement.replications = 200;
  const core::Pipeline pipeline(scope, stuxnet, po);
  const auto result =
      pipeline.run({"os.control", "plc.firmware", "firewall"}, /*max_levels=*/2);

  std::cout << "[pipeline]\n" << result.assessment.report << "\n";
  return 0;
}
