#include "dist/sweep.h"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "attack/threat.h"
#include "core/report.h"
#include "scenario/presets.h"
#include "sim/executor.h"
#include "stats/rng.h"
#include "util/json.h"

namespace divsec::dist {

namespace {

/// Wall-clock milliseconds of one call.
template <typename F>
double timed_ms(const F& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

sim::ShardPlan sweep_shard_plan(const SweepMeta& meta) {
  return sim::ShardPlan::make(meta.cells, meta.replications,
                              meta.replication_block, meta.superblock);
}

std::vector<std::uint64_t> achieved_tasks(const SweepMeta& meta) {
  const sim::ShardPlan plan = sweep_shard_plan(meta);
  const std::size_t per_group = plan.superblocks_per_group();
  std::vector<std::uint64_t> tasks;
  if (meta.achieved.empty()) {
    tasks.resize(plan.task_count());
    for (std::size_t t = 0; t < tasks.size(); ++t) tasks[t] = t;
    return tasks;
  }
  if (meta.achieved.size() != meta.cells)
    throw std::invalid_argument(
        "achieved_tasks: achieved-count list must have one entry per cell");
  for (std::size_t c = 0; c < meta.cells; ++c) {
    const std::uint64_t needed = sim::ceil_div(meta.achieved[c], meta.superblock);
    for (std::uint64_t s = 0; s < needed; ++s)
      tasks.push_back(c * per_group + s);
  }
  return tasks;
}

SweepMeta make_meta(const SweepSpec& spec) {
  if (spec.policies.empty())
    throw std::invalid_argument("sweep: need at least one policy arm");
  // Canonicalize the preset and threat spellings before they enter the
  // meta block: the fingerprint hashes these strings, so "brownfield"
  // and its expanded familyv1 form must land on identical bytes.
  std::string preset;
  try {
    preset = scenario::resolve_preset_name(spec.preset);
  } catch (const std::out_of_range& e) {
    throw std::invalid_argument("sweep: " + std::string(e.what()));
  }
  SweepMeta meta;
  meta.preset = std::move(preset);
  meta.policies = spec.policies;
  meta.threat = attack::canonical_threat_spec(spec.threat);
  meta.seed = spec.seed;
  meta.replications = spec.replications;
  const sim::ShardPlan plan =
      sim::ShardPlan::make(spec.policies.size(), spec.replications,
                           spec.replication_block, spec.superblock);
  meta.replication_block = plan.block();
  meta.superblock = plan.superblock();
  meta.survival_bins = spec.survival_bins;
  meta.horizon_hours =
      spec.horizon_hours.value_or(attack::CampaignOptions{}.t_max_hours);
  if (!(std::isfinite(meta.horizon_hours) && meta.horizon_hours > 0.0))
    throw std::invalid_argument("sweep: horizon must be finite and > 0 hours");
  meta.cells = spec.policies.size();
  if (!spec.achieved.empty()) {
    if (spec.achieved.size() != spec.policies.size())
      throw std::invalid_argument(
          "sweep: achieved-count list must have one entry per cell");
    for (const std::uint64_t a : spec.achieved)
      if (a == 0 || a > spec.replications)
        throw std::invalid_argument(
            "sweep: achieved replications outside (0, budget]");
    meta.achieved = spec.achieved;
  }
  meta.threads = static_cast<std::uint32_t>(sim::Executor::default_thread_count());
  return meta;
}

SweepSpec spec_from_meta(const SweepMeta& meta) {
  SweepSpec spec;
  spec.preset = meta.preset;
  spec.policies = meta.policies;
  spec.threat = meta.threat;
  spec.seed = meta.seed;
  spec.replications = meta.replications;
  spec.replication_block = meta.replication_block;
  spec.superblock = meta.superblock;
  spec.survival_bins = meta.survival_bins;
  spec.horizon_hours = meta.horizon_hours;
  spec.achieved = meta.achieved;
  return spec;
}

attack::ThreatProfile threat_profile(const std::string& name) {
  return attack::threat_profile_from_spec(name);
}

core::ScenarioSweepPlan expand_plan(const SweepSpec& spec,
                                    const divers::VariantCatalog& catalog) {
  core::ScenarioSweepPlan plan;
  std::uint64_t sm = spec.seed;  // iterated SplitMix64 seed chain
  for (auto& arm : scenario::make_preset_arms(spec.preset, catalog, spec.seed,
                                              spec.policies))
    plan.cells.push_back({std::move(arm.scenario), stats::splitmix64(sm)});
  return plan;
}

std::vector<std::string> cell_names(const SweepSpec& spec) {
  std::vector<std::string> names;
  names.reserve(spec.policies.size());
  for (const auto policy : spec.policies)
    names.emplace_back(scenario::to_string(policy));
  return names;
}

core::MeasurementOptions sweep_options(const SweepSpec& spec,
                                       const sim::Executor* executor) {
  core::MeasurementOptions mo;
  mo.engine = core::Engine::kCampaign;
  mo.replications = spec.replications;
  mo.seed = spec.seed;
  mo.replication_block = spec.replication_block;
  mo.superblock = spec.superblock;
  mo.survival_bins = spec.survival_bins;
  if (spec.horizon_hours) mo.campaign.t_max_hours = *spec.horizon_hours;
  mo.executor = executor;
  return mo;
}

ShardState run_shard(const SweepSpec& spec, std::size_t shard,
                     std::size_t shard_count, const sim::Executor* executor) {
  std::vector<std::uint64_t> tasks = achieved_tasks(make_meta(spec));
  const auto [lo, hi] = sim::contiguous_range(tasks.size(), shard, shard_count);
  tasks.erase(tasks.begin() + static_cast<std::ptrdiff_t>(hi), tasks.end());
  tasks.erase(tasks.begin(), tasks.begin() + static_cast<std::ptrdiff_t>(lo));
  return run_shard_tasks(spec, std::move(tasks), shard, shard_count, executor);
}

ShardState run_shard_tasks(const SweepSpec& spec,
                           std::vector<std::uint64_t> tasks, std::size_t shard,
                           std::size_t shard_count,
                           const sim::Executor* executor) {
  ShardState state;
  state.meta = make_meta(spec);
  state.meta.shard = shard;
  state.meta.shard_count = shard_count;
  if (executor)
    state.meta.threads = static_cast<std::uint32_t>(executor->thread_count());

  const sim::ShardPlan plan = sweep_shard_plan(state.meta);
  state.tasks = std::move(tasks);

  state.meta.wall_ms = timed_ms([&] {
    const divers::VariantCatalog catalog =
        divers::VariantCatalog::standard(spec.seed);
    const attack::ThreatProfile profile = threat_profile(spec.threat);
    const core::MeasurementOptions options = sweep_options(spec, executor);
    const core::MeasurementEngine engine(catalog, profile, options);
    const core::ScenarioSweepPlan sweep = expand_plan(spec, catalog);
    std::vector<double> task_seconds;
    const std::vector<core::IndicatorAccumulator> partials =
        engine.measure_scenario_tasks(sweep, plan, state.tasks, &task_seconds);
    state.partials.reserve(partials.size());
    for (const auto& p : partials) state.partials.push_back(p.state());
    // Fold the per-task timings into the per-cell cost model this state
    // ships: the measurement feed of `divsec_sweep plan --weights`.
    state.cost.cells.assign(state.meta.cells, CellCost{});
    for (std::size_t t = 0; t < state.tasks.size(); ++t) {
      const sim::ShardPlan::Task task = plan.task(state.tasks[t]);
      CellCost& cell = state.cost.cells[task.group];
      cell.replications += task.end - task.begin;
      cell.seconds += task_seconds[t];
    }
  });
  return state;
}

std::vector<core::IndicatorSummary> run_in_process(
    const SweepSpec& spec, const sim::Executor* executor) {
  const divers::VariantCatalog catalog =
      divers::VariantCatalog::standard(spec.seed);
  const attack::ThreatProfile profile = threat_profile(spec.threat);
  const core::MeasurementOptions options = sweep_options(spec, executor);
  const core::MeasurementEngine engine(catalog, profile, options);
  return engine.measure_scenarios(expand_plan(spec, catalog));
}

MergeResult merge_shards(const std::vector<ShardState>& states) {
  if (states.empty())
    throw std::invalid_argument("merge_shards: no shard states");
  // Every rejection names the culprit input(s) by position and by the
  // shard/shard_count they recorded; MergeError::inputs carries the
  // positions so the CLI can name the files.
  const auto input = [&](std::size_t i) {
    return "input " + std::to_string(i) + " (shard " +
           std::to_string(states[i].meta.shard) + "/" +
           std::to_string(states[i].meta.shard_count) + ")";
  };
  const std::uint64_t fingerprint = sweep_fingerprint(states.front().meta);
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (states[i].meta.merged)
      throw MergeError("merge_shards: " + input(i) +
                           " is already a merged state",
                       {i});
    if (sweep_fingerprint(states[i].meta) != fingerprint)
      throw MergeError("merge_shards: " + input(i) +
                           " comes from a different sweep than input 0 "
                           "(fingerprint mismatch)",
                       {0, i});
  }

  const SweepMeta& meta = states.front().meta;
  const sim::ShardPlan plan = sweep_shard_plan(meta);
  const std::size_t tasks = plan.task_count();

  // Exact coverage of the sweep's task set: every task of the full plan
  // for fixed budgets, each cell's achieved prefix for adaptive sweeps —
  // exactly once, none foreign. Task lists need not be contiguous
  // (cost-weighted plans are not); only the union matters.
  const std::vector<std::uint64_t> expect = achieved_tasks(meta);
  std::vector<char> expected(tasks, 0);
  for (const std::uint64_t t : expect) expected[t] = 1;
  std::vector<const core::IndicatorAccumulator::State*> slots(tasks, nullptr);
  std::vector<std::size_t> owner(tasks, 0);  // input position per slot
  for (std::size_t i = 0; i < states.size(); ++i) {
    const ShardState& s = states[i];
    if (s.partials.size() != s.tasks.size())
      throw MergeError(
          "merge_shards: " + input(i) + ": partial count != task list size",
          {i});
    for (std::size_t k = 0; k < s.tasks.size(); ++k) {
      const std::uint64_t t = s.tasks[k];
      if (t >= tasks || !expected[t])
        throw MergeError("merge_shards: task " + std::to_string(t) + " of " +
                             input(i) + " is outside the sweep's task set",
                         {i});
      if (slots[t])
        throw MergeError("merge_shards: task " + std::to_string(t) +
                             " appears in both " + input(owner[t]) + " and " +
                             input(i),
                         {owner[t], i});
      slots[t] = &s.partials[k];
      owner[t] = i;
    }
  }
  for (const std::uint64_t t : expect)
    if (!slots[t]) {
      std::string held;
      for (std::size_t i = 0; i < states.size(); ++i)
        held += (i ? ", " : "") + std::to_string(states[i].meta.shard) + "/" +
                std::to_string(states[i].meta.shard_count);
      throw MergeError("merge_shards: task " + std::to_string(t) +
                           " is missing (incomplete shard set: the inputs "
                           "hold shards " + held + ")",
                       {});
    }

  // Restore and fold each cell's covered prefix in ascending (cell,
  // superblock) order, the order `expect` lists it in — the same left
  // fold into default accumulators the in-process reducer performs
  // (sim::reduce_task_partials).
  const std::size_t per_group = plan.superblocks_per_group();
  MergeResult out;
  out.accumulators.resize(meta.cells);
  for (const std::uint64_t t : expect)
    out.accumulators[t / per_group].merge(
        core::IndicatorAccumulator::from_state(*slots[t]));
  // The engine's own cell-summary step, fed the meta's budget: merged
  // summaries are field-for-field those of the in-process path.
  out.summaries = core::summarize_cells(out.accumulators, meta.achieved,
                                        meta.replications, meta.horizon_hours);
  out.meta = meta;
  out.meta.shard = 0;
  out.meta.shard_count = states.size();  // provenance: shards reduced
  out.meta.merged = true;
  for (const auto& s : states) out.cost.merge(s.cost);
  return out;
}

ShardState merged_state(const MergeResult& merged) {
  ShardState state;
  state.meta = merged.meta;
  state.meta.merged = true;
  state.tasks.resize(merged.accumulators.size());
  for (std::size_t c = 0; c < state.tasks.size(); ++c) state.tasks[c] = c;
  state.partials.reserve(merged.accumulators.size());
  for (const auto& a : merged.accumulators) state.partials.push_back(a.state());
  state.cost = merged.cost;
  state.rounds = merged.rounds;
  state.cell_rounds = merged.cell_rounds;
  return state;
}

std::vector<core::IndicatorSummary> summaries_from_merged(
    const ShardState& merged) {
  if (!merged.meta.merged)
    throw std::invalid_argument(
        "summaries_from_merged: state file is an unmerged shard (run "
        "divsec_sweep merge first)");
  if (merged.partials.size() != merged.meta.cells)
    throw std::invalid_argument(
        "summaries_from_merged: cell count mismatch in merged state");
  std::vector<core::IndicatorAccumulator> acc;
  acc.reserve(merged.partials.size());
  for (const auto& p : merged.partials)
    acc.push_back(core::IndicatorAccumulator::from_state(p));
  return core::summarize_cells(acc, merged.meta.achieved, merged.meta.replications,
                               merged.meta.horizon_hours);
}

std::string sweep_csv(const SweepMeta& meta,
                      const std::vector<core::IndicatorSummary>& cells) {
  core::MeasurementTable table;
  stats::Factor factor;
  factor.name = "policy";
  for (const auto policy : meta.policies)
    factor.levels.emplace_back(scenario::to_string(policy));
  table.space = stats::FactorSpace({std::move(factor)});
  table.configurations.resize(cells.size());
  table.summaries = cells;
  return core::measurement_csv(table);
}

std::string summary_json(const SweepMeta& meta,
                         const std::vector<core::IndicatorSummary>& cells) {
  using util::json_number_exact;
  using util::json_string;
  std::string out = "{\"sweep\": " + meta_json(meta) + ", \"cells\": [\n";
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const core::IndicatorSummary& s = cells[c];
    const auto median = [&](const std::optional<double>& m) {
      return m ? json_number_exact(*m) : std::string("null");
    };
    const std::string name =
        c < meta.policies.size()
            ? std::string(scenario::to_string(meta.policies[c]))
            : "cell" + std::to_string(c);
    out += "  {\"cell\": " + json_string(name) +
           ", \"replications\": " + std::to_string(s.replications) +
           ", \"success_prob\": " +
           json_number_exact(s.attack_success_probability()) +
           ", \"tta_mean\": " + json_number_exact(s.tta.mean()) +
           ", \"tta_censored\": " + std::to_string(s.tta_censored) +
           ", \"tta_rmean\": " + json_number_exact(s.tta_event.restricted_mean) +
           ", \"tta_median\": " + median(s.tta_event.median) +
           ", \"ttsf_mean\": " + json_number_exact(s.ttsf.mean()) +
           ", \"ttsf_censored\": " + std::to_string(s.ttsf_censored) +
           ", \"ttsf_rmean\": " +
           json_number_exact(s.ttsf_event.restricted_mean) +
           ", \"ttsf_median\": " + median(s.ttsf_event.median) +
           ", \"final_ratio_mean\": " + json_number_exact(s.final_ratio.mean()) +
           "}";
    out += c + 1 < cells.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace divsec::dist
