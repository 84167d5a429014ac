#include "core/pipeline.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "core/measurement.h"
#include "stats/sensitivity.h"

namespace divsec::core {

Pipeline::Pipeline(const SystemDescription& description, attack::ThreatProfile profile,
                   PipelineOptions options)
    : description_(&description), profile_(std::move(profile)), options_(options) {
  profile_.validate();
  if (options_.measurement.replications < 2)
    throw std::invalid_argument("Pipeline: need >= 2 replications for ANOVA");
}

attack::StagedAttackModel Pipeline::attack_model(const Configuration& c) const {
  return derive_staged_model(description_->catalog(), description_->instantiate(c),
                             profile_, options_.measurement.detection);
}

MeasurementTable Pipeline::measure_full_factorial(
    const std::vector<std::string>& component_names,
    std::size_t max_levels_per_factor) const {
  if (component_names.empty())
    throw std::invalid_argument("measure_full_factorial: no components named");
  const auto& comps = description_->components();
  MeasurementTable out;

  // Resolve the swept components and build the (possibly truncated) space.
  std::vector<stats::Factor> factors;
  for (const auto& name : component_names) {
    auto it = std::find_if(comps.begin(), comps.end(),
                           [&name](const Component& c) { return c.name == name; });
    if (it == comps.end())
      throw std::invalid_argument("measure_full_factorial: unknown component '" +
                                  name + "'");
    const std::size_t idx = static_cast<std::size_t>(it - comps.begin());
    out.component_index.push_back(idx);
    stats::Factor f;
    f.name = name;
    const auto& variants = description_->catalog().variants(it->kind);
    std::size_t levels = variants.size();
    if (max_levels_per_factor != 0)
      levels = std::min(levels, max_levels_per_factor);
    if (levels < 2)
      throw std::invalid_argument("measure_full_factorial: component '" + name +
                                  "' has < 2 levels to sweep");
    for (std::size_t v = 0; v < levels; ++v) f.levels.push_back(variants[v].name);
    factors.push_back(std::move(f));
  }
  out.space = stats::FactorSpace(std::move(factors));

  // Enumerate configurations in FactorSpace order, then measure the whole
  // table as one batched (cell × replication) job list.
  const std::size_t n = out.space.configuration_count();
  ScenarioSweepPlan plan;
  plan.cells.reserve(n);
  out.configurations.reserve(n);
  for (std::size_t flat = 0; flat < n; ++flat) {
    const std::vector<int> levels = out.space.decode(flat);
    Configuration config = description_->baseline_configuration();
    for (std::size_t f = 0; f < levels.size(); ++f)
      config.variant[out.component_index[f]] = static_cast<std::size_t>(levels[f]);
    // Independent seed block per cell so cells are statistically
    // independent but the whole table is reproducible.
    plan.cells.push_back(
        {description_->instantiate(config), options_.measurement.seed + 7919 * flat});
    out.configurations.push_back(std::move(config));
  }

  // Extract the per-replicate response vectors through the engine's cell
  // visitor — the summaries themselves never retain raw samples.
  out.tta_cells.resize(n);
  out.ttsf_cells.resize(n);
  out.success_cells.resize(n);
  const MeasurementEngine engine(description_->catalog(), profile_,
                                 options_.measurement);
  out.summaries = engine.measure_scenarios(
      plan, [&out](std::size_t cell, std::span<const IndicatorSample> samples) {
        auto& tta = out.tta_cells[cell];
        auto& ttsf = out.ttsf_cells[cell];
        auto& success = out.success_cells[cell];
        tta.reserve(samples.size());
        ttsf.reserve(samples.size());
        success.reserve(samples.size());
        for (const auto& s : samples) {
          tta.push_back(s.tta);
          ttsf.push_back(s.ttsf);
          success.push_back(s.attack_succeeded ? 1.0 : 0.0);
        }
      });
  return out;
}

Pipeline::Screening Pipeline::screen() const {
  const auto& comps = description_->components();
  std::vector<std::string> names;
  names.reserve(comps.size());
  for (const auto& c : comps) names.push_back(c.name);
  Screening out;
  out.design = stats::plackett_burman(std::move(names));

  ScenarioSweepPlan plan;
  plan.cells.reserve(out.design.runs.size());
  for (const auto& run : out.design.runs) {
    Configuration config = description_->baseline_configuration();
    for (std::size_t f = 0; f < comps.size(); ++f) {
      if (run[f] > 0)
        config.variant[f] = description_->catalog().count(comps[f].kind) - 1;
    }
    plan.cells.push_back({description_->instantiate(config), options_.measurement.seed});
  }
  const MeasurementEngine engine(description_->catalog(), profile_,
                                 options_.measurement);
  for (const IndicatorSummary& s : engine.measure_scenarios(plan)) {
    out.mean_tta.push_back(s.tta.mean());
    out.success_prob.push_back(s.attack_success_probability());
  }
  out.tta_effects = stats::main_effects(out.design, out.mean_tta);
  out.success_effects = stats::main_effects(out.design, out.success_prob);
  return out;
}

Pipeline::Fractional Pipeline::measure_fractional(
    const std::vector<std::string>& base_components,
    const std::vector<std::pair<std::string, std::string>>& generators) const {
  const auto& comps = description_->components();
  const auto index_of = [&comps](const std::string& name) {
    auto it = std::find_if(comps.begin(), comps.end(),
                           [&name](const Component& c) { return c.name == name; });
    if (it == comps.end())
      throw std::invalid_argument("measure_fractional: unknown component '" + name +
                                  "'");
    return static_cast<std::size_t>(it - comps.begin());
  };

  std::vector<stats::Generator> gens;
  gens.reserve(generators.size());
  for (const auto& [factor, word] : generators) gens.push_back({factor, word});

  Fractional out;
  out.design = stats::fractional_factorial(base_components, gens);
  out.aliases = stats::alias_structure(base_components.size(), gens);

  // Map every design factor (base + generated) to a component index.
  std::vector<std::size_t> comp_index;
  for (const auto& name : out.design.factor_names) comp_index.push_back(index_of(name));

  ScenarioSweepPlan plan;
  plan.cells.reserve(out.design.run_count());
  for (std::size_t r = 0; r < out.design.run_count(); ++r) {
    Configuration config = description_->baseline_configuration();
    for (std::size_t f = 0; f < comp_index.size(); ++f) {
      if (out.design.runs[r][f] > 0) {
        const std::size_t ci = comp_index[f];
        config.variant[ci] = description_->catalog().count(comps[ci].kind) - 1;
      }
    }
    plan.cells.push_back(
        {description_->instantiate(config), options_.measurement.seed + 104729 * r});
  }
  const MeasurementEngine engine(description_->catalog(), profile_,
                                 options_.measurement);
  for (const IndicatorSummary& s : engine.measure_scenarios(plan)) {
    out.success_prob.push_back(s.attack_success_probability());
    out.mean_tta.push_back(s.tta.mean());
  }
  out.success_effects = stats::main_effects(out.design, out.success_prob);
  out.tta_effects = stats::main_effects(out.design, out.mean_tta);
  return out;
}

Assessment Pipeline::assess(const MeasurementTable& table) const {
  if (table.configurations.empty())
    throw std::invalid_argument("assess: empty measurement table");
  std::vector<std::size_t> levels;
  std::vector<std::string> names;
  for (std::size_t f = 0; f < table.space.factor_count(); ++f) {
    levels.push_back(table.space.factor(f).levels.size());
    names.push_back(table.space.factor(f).name);
  }
  Assessment out;
  out.tta_anova = stats::factorial_anova(levels, names, table.tta_cells,
                                         options_.max_interaction_order);
  out.ttsf_anova = stats::factorial_anova(levels, names, table.ttsf_cells,
                                          options_.max_interaction_order);
  out.success_anova = stats::factorial_anova(levels, names, table.success_cells,
                                             options_.max_interaction_order);

  // Rank main effects on the success indicator.
  for (const auto& e : stats::rank_by_variance_share(out.success_anova)) {
    if (e.name.find(':') != std::string::npos) continue;  // interactions
    out.ranking.push_back(e);
  }
  for (const auto& e : out.ranking)
    if (e.eta_squared >= options_.recommend_eta_squared &&
        e.p_value < options_.recommend_alpha)
      out.recommended.push_back(e.name);

  std::ostringstream os;
  os << "=== Diversity Assessment (" << profile_.name << ") ===\n\n";
  os << "-- ANOVA: attack success probability --\n"
     << out.success_anova.to_string() << "\n";
  os << "-- ANOVA: Time-To-Attack (censored at horizon) --\n"
     << out.tta_anova.to_string() << "\n";
  os << "-- ANOVA: Time-To-Security-Failure (censored at horizon) --\n"
     << out.ttsf_anova.to_string() << "\n";
  os << "-- Components ranked by success-probability variance share --\n";
  for (const auto& e : out.ranking)
    os << "  " << e.name << "  eta^2=" << e.eta_squared << "  p=" << e.p_value << "\n";
  os << "\n-- Recommended to diversify --\n";
  if (out.recommended.empty())
    os << "  (none met the thresholds)\n";
  else
    for (const auto& r : out.recommended) os << "  " << r << "\n";
  out.report = os.str();
  return out;
}

Pipeline::Result Pipeline::run(const std::vector<std::string>& component_names,
                               std::size_t max_levels_per_factor) const {
  Result r;
  r.table = measure_full_factorial(component_names, max_levels_per_factor);
  r.assessment = assess(r.table);
  return r;
}

}  // namespace divsec::core
