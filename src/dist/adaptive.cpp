#include "dist/adaptive.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "sim/executor.h"

namespace divsec::dist {

MergeResult run_adaptive(const SweepSpec& spec,
                         const core::AdaptiveOptions& options,
                         const sim::Executor* executor) {
  if (!spec.achieved.empty())
    throw std::invalid_argument(
        "run_adaptive: spec already carries achieved counts (that is a "
        "replay input, not an adaptive-run input)");

  MergeResult result;
  result.meta = make_meta(spec);
  SweepMeta& meta = result.meta;
  core::AdaptiveReport report;
  const auto t0 = std::chrono::steady_clock::now();
  {
    const divers::VariantCatalog catalog =
        divers::VariantCatalog::standard(spec.seed);
    const attack::ThreatProfile profile = threat_profile(spec.threat);
    const core::MeasurementEngine engine(catalog, profile,
                                         sweep_options(spec, executor));
    result.summaries = engine.measure_scenarios_adaptive(
        expand_plan(spec, catalog), options, &report);
  }
  meta.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count();

  meta.achieved = report.achieved;
  meta.merged = true;
  if (executor)
    meta.threads = static_cast<std::uint32_t>(executor->thread_count());

  result.cost.cells.resize(meta.cells);
  for (std::size_t c = 0; c < meta.cells; ++c)
    result.cost.cells[c] = CellCost{report.achieved[c], report.cell_seconds[c]};
  result.accumulators = std::move(report.accumulators);
  result.rounds = std::move(report.rounds);
  result.cell_rounds = std::move(report.cell_rounds);
  return result;
}

}  // namespace divsec::dist
