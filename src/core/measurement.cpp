#include "core/measurement.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/indicator_accumulator.h"
#include "net/reachability_index.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "san/simulator.h"
#include "sim/executor.h"
#include "sim/shard_plan.h"
#include "sim/stopping.h"
#include "sim/streaming.h"

namespace divsec::core {

namespace {

/// Shared-context telemetry (replaces the old MeasurementOptions::
/// context_stats plumbing). Process-cumulative: tests and benches read
/// per-call deltas via obs::reset().
obs::Counter& contexts_built_counter() {
  static obs::Counter& c = obs::counter("core.context.built");
  return c;
}
obs::Gauge& contexts_peak_live_gauge() {
  static obs::Gauge& g = obs::gauge("core.context.peak_live");
  return g;
}
obs::Counter& reach_builds_counter() {
  static obs::Counter& c = obs::counter("core.context.reach_builds");
  return c;
}

/// Adaptive round-loop telemetry: one add per round, nothing per
/// replication.
struct AdaptCounters {
  obs::Counter& rounds = obs::counter("adapt.rounds");
  obs::Counter& cells_retired = obs::counter("adapt.cells_retired");
  obs::Counter& round_tasks = obs::counter("adapt.round_tasks");
  obs::Counter& round_replications = obs::counter("adapt.round_replications");
  obs::Counter& merge_ns = obs::counter("adapt.merge_ns");

  static const AdaptCounters& instance() {
    static const AdaptCounters counters;
    return counters;
  }
};

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Read-only per-cell state shared by that cell's replication jobs.
/// Exactly one of `campaign` / `san` is engaged, per the options' engine.
struct CellContext {
  std::optional<attack::CampaignSimulator> campaign;

  struct StagedSan {
    attack::AttackSan asan;
    san::Predicate terminal;
  };
  std::optional<StagedSan> san;
};

/// One (cell, replication) job, written into `s` (a per-thread sample,
/// so its ratio_counts buffer is reused across replications). All
/// randomness comes from `rng`, so the sample depends only on (cell
/// seed, replication index).
void run_job(const CellContext& ctx, double horizon,
             std::span<const double> curve_edges, stats::Rng rng,
             IndicatorSample& s) {
  if (ctx.campaign) {
    campaign_sample(*ctx.campaign, horizon, curve_edges, rng, s);
  } else {
    san::SanSimulator sim(ctx.san->asan.model, rng);
    const auto t = sim.run_until_predicate(ctx.san->terminal, horizon);
    const bool succeeded = t && sim.tokens(ctx.san->asan.success_place) >= 1;
    const bool detected = t && sim.tokens(ctx.san->asan.detected_place) >= 1;
    s.tta = succeeded ? *t : horizon;
    s.tta_censored = !succeeded;
    s.ttsf = detected ? *t : horizon;
    s.ttsf_censored = !detected;
    s.attack_succeeded = succeeded;
    s.final_ratio = succeeded ? 1.0 : 0.0;
    // No c(t) trajectory; the reused sample may hold a campaign's curve.
    s.ratio_counts.clear();
    s.ratio_scale = 0;
  }
}

}  // namespace

void campaign_sample(const attack::CampaignSimulator& sim, double horizon,
                     std::span<const double> curve_edges, stats::Rng rng,
                     IndicatorSample& s) {
  // The kernel bins c(t) at the curve-grid bin upper edges as integer
  // compromised-node counts; the curve accumulator sums these exactly
  // across any merge order.
  s.ratio_counts.resize(curve_edges.size());
  const attack::CampaignResult r = sim.run(rng, {curve_edges, s.ratio_counts});
  s.tta = r.time_to_attack.value_or(horizon);
  s.tta_censored = !r.time_to_attack.has_value();
  s.ttsf = r.time_to_detection.value_or(horizon);
  s.ttsf_censored = !r.time_to_detection.has_value();
  s.attack_succeeded = r.attack_succeeded();
  const std::size_t nodes = sim.reachability().node_count();
  s.final_ratio = static_cast<double>(r.hosts_compromised + r.plcs_compromised) /
                  static_cast<double>(nodes);
  s.ratio_scale = static_cast<std::uint64_t>(nodes);
}

/// The one place cell contexts come from — every entry point
/// (measure_scenarios, its adaptive form, measure_scenario_tasks) goes
/// through this factory, which run_tasks drives lazily one scheduling
/// round at a time. It holds the plan's cells and hands out their seeds.
///
/// Campaign contexts whose topologies are copies of one value (one
/// net::Topology::identity(), e.g. the arms scenario::make_preset_arms
/// builds over one generated fleet) under the same firewall verdicts
/// share one net::ReachabilityIndex. The key is an address, not the
/// structure, so finding the index costs O(1) whatever the fleet size;
/// separately built topologies that happen to be equal get one index
/// each. Every keyed topology belongs to a plan cell, which outlives the
/// factory, so no key's address is reused while the map lives. run_tasks
/// resolves a round's indexes on its own thread before the round's
/// parallel build, so a fleet of same-topology cells builds its index
/// exactly once and the builders receive it instead of racing for it.
/// Construction consumes no randomness, so sharing and laziness leave
/// results bit-identical.
///
/// One instance per measurement call (the map — and the indexes it
/// holds — lives exactly that long). build() may run concurrently;
/// reach_for() runs on the calling thread only.
class MeasurementEngine::ContextFactory {
 public:
  using IndexPtr = std::shared_ptr<const net::ReachabilityIndex>;

  ContextFactory(const divers::VariantCatalog& catalog,
                 const attack::ThreatProfile& profile,
                 const MeasurementOptions& options,
                 std::span<const ScenarioCell> cells)
      : catalog_(&catalog), profile_(&profile), options_(&options), cells_(cells) {}

  [[nodiscard]] std::size_t cell_count() const noexcept { return cells_.size(); }
  [[nodiscard]] std::uint64_t seed(std::size_t c) const noexcept {
    return cells_[c].seed;
  }

  /// The reachability index of each of `cells`, in order: a map lookup
  /// per cell, then one build per key not seen before, those builds
  /// spread over `executor`. All null for the staged-SAN engine.
  [[nodiscard]] std::vector<IndexPtr> reach_for(std::span<const std::size_t> cells,
                                                const sim::Executor& executor) {
    if (options_->engine == Engine::kStagedSan)
      return std::vector<IndexPtr>(cells.size());
    std::vector<const IndexPtr*> found;
    std::vector<std::pair<IndexPtr*, const attack::Scenario*>> missing;
    for (const std::size_t c : cells) {
      const attack::Scenario& sc = cells_[c].scenario;
      auto [it, inserted] = reach_.try_emplace(
          Key{sc.topology.identity(), net::ReachabilityIndex::verdicts(sc.firewall)});
      if (inserted) missing.emplace_back(&it->second, &sc);
      found.push_back(&it->second);
    }
    executor.parallel_for(0, missing.size(), [&](std::size_t i) {
      const obs::Span span("context.reach");
      const attack::Scenario& sc = *missing[i].second;
      *missing[i].first =
          std::make_shared<const net::ReachabilityIndex>(sc.topology, sc.firewall);
    });
    reach_builds_counter().add(missing.size());
    std::vector<IndexPtr> out;
    out.reserve(found.size());
    for (const IndexPtr* index : found) out.push_back(*index);
    return out;
  }

  /// Build cell c's context over its index from reach_for (null for the
  /// staged-SAN engine). Thread-safe: reads only. Both engines validate
  /// the cell's scenario here.
  [[nodiscard]] std::unique_ptr<CellContext> build(std::size_t c,
                                                   IndexPtr reach) const {
    auto ctx = std::make_unique<CellContext>();
    const attack::Scenario& sc = cells_[c].scenario;
    if (options_->engine == Engine::kStagedSan) {
      auto& staged = ctx->san.emplace();
      staged.asan = attack::build_attack_san(
          derive_staged_model(*catalog_, sc, *profile_, options_->detection));
      staged.terminal = staged.asan.terminal_predicate();
    } else {
      ctx->campaign.emplace(sc, *profile_, *catalog_, options_->detection,
                            options_->campaign, std::move(reach));
    }
    return ctx;
  }

 private:
  const divers::VariantCatalog* catalog_;
  const attack::ThreatProfile* profile_;
  const MeasurementOptions* options_;
  std::span<const ScenarioCell> cells_;

  using Key = std::pair<const void*, net::ReachabilityIndex::Verdicts>;
  std::map<Key, IndexPtr> reach_;
};

namespace {

void validate_options(const MeasurementOptions& options) {
  if (options.replications == 0)
    throw std::invalid_argument("MeasurementEngine: need >= 1 replication");
  if (!(options.campaign.t_max_hours > 0.0))
    throw std::invalid_argument(
        "MeasurementEngine: campaign.t_max_hours (the measurement horizon) "
        "must be > 0");
  if (options.survival_bins == 0 || options.survival_bins > stats::kMaxSurvivalBins)
    throw std::invalid_argument("MeasurementEngine: survival bins must be in [1, " +
                                std::to_string(stats::kMaxSurvivalBins) + "]");
}

}  // namespace

MeasurementEngine::MeasurementEngine(const divers::VariantCatalog& catalog,
                                     const attack::ThreatProfile& profile,
                                     const MeasurementOptions& options)
    : catalog_(&catalog),
      profile_(&profile),
      options_(options),
      executor_(options.executor ? options.executor : &sim::Executor::shared()) {
  validate_options(options_);
}

sim::ShardPlan MeasurementEngine::shard_plan(std::size_t cells) const {
  return sim::ShardPlan::make(cells, options_.replications,
                              options_.replication_block, options_.superblock);
}

std::vector<IndicatorAccumulator> MeasurementEngine::run_tasks(
    ContextFactory& factory, const sim::ShardPlan& shard,
    std::span<const std::uint64_t> tasks, std::vector<IndicatorSample>* samples,
    std::vector<double>* task_seconds) const {
  const double horizon = options_.campaign.t_max_hours;
  const std::size_t reps = options_.replications;
  const std::size_t total = tasks.size();
  const auto make = [&](std::size_t) {
    return IndicatorAccumulator(horizon, options_.survival_bins);
  };
  const std::vector<double> curve_edges =
      curve_bin_edges(horizon, options_.survival_bins);

  // The task list is consumed one scheduling round of 4 × threads tasks
  // at a time, and cell contexts are built only for the cells a round
  // touches, then dropped once the ascending task order has moved past
  // them. Per-task partials depend
  // only on (cell, superblock, RNG contract), so chunking the schedule
  // changes no bits; it changes residency: a 10^4-cell sweep holds
  // O(threads) contexts instead of 10^4 (reachability indexes are
  // shared per topology through the factory and live for the whole
  // call, so round boundaries never rebuild one).
  const std::size_t round_tasks =
      std::max<std::size_t>(4 * executor_->thread_count(), 1);
  std::vector<std::unique_ptr<CellContext>> slots(factory.cell_count());
  std::vector<std::size_t> live;   // engaged slots, ascending cell ids
  std::vector<std::size_t> fresh;  // scratch: cells this round must build

  // Heartbeat over replications actually scheduled (throttled; silent
  // for short calls). Stderr only — never a byte of output data.
  std::uint64_t total_reps = 0;
  for (const std::uint64_t t : tasks) {
    const sim::ShardPlan::Task task = shard.task(t);
    total_reps += task.end - task.begin;
  }
  obs::Heartbeat heartbeat("measure", total_reps);
  std::uint64_t done_reps = 0;

  std::vector<IndicatorAccumulator> out;
  out.reserve(total);
  if (task_seconds) {
    task_seconds->clear();
    task_seconds->reserve(total);
  }

  for (std::size_t begin = 0; begin < total; begin += round_tasks) {
    const obs::Span round_span("measure.round");
    const std::size_t end = std::min(begin + round_tasks, total);
    const std::size_t count = end - begin;

    // Contexts are independent, so a round's missing ones build in a
    // parallel_for of their own, each over the index resolved for it
    // here first.
    fresh.clear();
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t cell = shard.task(tasks[t]).group;
      if (!slots[cell] && (fresh.empty() || fresh.back() != cell))
        fresh.push_back(cell);
    }
    std::vector<ContextFactory::IndexPtr> reach =
        factory.reach_for(fresh, *executor_);
    executor_->parallel_for(0, fresh.size(), [&](std::size_t i) {
      const obs::Span build_span("context.build");
      slots[fresh[i]] = factory.build(fresh[i], std::move(reach[i]));
    });
    live.insert(live.end(), fresh.begin(), fresh.end());
    contexts_built_counter().add(fresh.size());
    contexts_peak_live_gauge().record_max(live.size());

    // One reduction per round over (task, block) items: a task's block
    // partials merge in ascending block order, so its partial depends
    // only on (cell, superblock, RNG contract) — not on the thread count,
    // the claim order, or which process runs it. Tasks past a cell's
    // replication count bound-check to no-ops (uniform task_span keeps
    // the item space rectangular).
    const auto fold = [&](IndicatorAccumulator& a, std::size_t g,
                          std::size_t i) {
      const sim::ShardPlan::Task task = shard.task(tasks[begin + g]);
      const std::size_t rep = task.begin + i;
      if (rep >= task.end) return;
      thread_local IndicatorSample s;
      run_job(*slots[task.group], horizon, curve_edges,
              stats::Rng(factory.seed(task.group), rep), s);
      if (samples) (*samples)[task.group * reps + rep] = s;
      a.add(s);
      // Kernel telemetry reaches the registry once per block (and at the
      // task's end), so totals are exact when this call returns.
      if ((i + 1) % shard.block() == 0 || rep + 1 == task.end)
        attack::CampaignSimulator::flush_telemetry();
    };
    std::vector<double> part_seconds;
    std::vector<IndicatorAccumulator> part =
        sim::reduce_groups<IndicatorAccumulator>(
            *executor_, count, shard.task_span(), shard.block(), make, fold,
            task_seconds ? &part_seconds : nullptr);
    for (auto& p : part) out.push_back(std::move(p));
    if (task_seconds)
      task_seconds->insert(task_seconds->end(), part_seconds.begin(),
                           part_seconds.end());

    // Drop what the ascending order has passed; keep cells the next
    // round still touches (a cell's tasks can straddle the boundary).
    const std::size_t keep_from =
        end < total ? shard.task(tasks[end]).group : factory.cell_count();
    std::size_t dropped = 0;
    while (dropped < live.size() && live[dropped] < keep_from)
      slots[live[dropped++]].reset();
    live.erase(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(dropped));

    for (std::size_t t = begin; t < end; ++t) {
      const sim::ShardPlan::Task task = shard.task(tasks[t]);
      done_reps += task.end - task.begin;
    }
    heartbeat.tick(done_reps);
  }
  heartbeat.finish(done_reps);
  return out;
}

std::vector<IndicatorSummary> MeasurementEngine::run_cells(
    ContextFactory& factory, const CellVisitor& visit) const {
  const std::size_t cells = factory.cell_count();
  const std::size_t reps = options_.replications;
  const double horizon = options_.campaign.t_max_hours;

  // The in-process path is the K = 1 instance of the distributed plan:
  // every superblock task of every cell runs here, then the exact
  // reducer folds task partials in ascending (cell, superblock) order —
  // the identical code path and merge sequence divsec_sweep uses across
  // OS processes, and bit-identical for any DIVSEC_THREADS. Without a
  // visitor memory stays O(cells + threads × block); a visitor
  // additionally gets each cell's samples, stored into a (cell ×
  // replication) matrix by the same fold sequence.
  std::vector<IndicatorSample> samples(visit ? cells * reps : 0);
  const sim::ShardPlan plan = shard_plan(cells);
  std::vector<std::uint64_t> all_tasks(plan.task_count());
  for (std::size_t t = 0; t < all_tasks.size(); ++t) all_tasks[t] = t;
  const std::vector<IndicatorAccumulator> acc = sim::reduce_task_partials(
      plan, run_tasks(factory, plan, all_tasks, visit ? &samples : nullptr,
                      /*task_seconds=*/nullptr));

  if (visit)
    for (std::size_t c = 0; c < cells; ++c)
      visit(c, std::span<const IndicatorSample>(samples.data() + c * reps,
                                                reps));
  return summarize_cells(acc, {}, reps, horizon);
}

std::vector<IndicatorSummary> MeasurementEngine::measure_scenarios(
    const ScenarioSweepPlan& plan, const CellVisitor& visit) const {
  ContextFactory factory(*catalog_, *profile_, options_, plan.cells);
  return run_cells(factory, visit);
}

std::vector<IndicatorSummary> MeasurementEngine::measure_scenarios_adaptive(
    const ScenarioSweepPlan& plan, const AdaptiveOptions& adaptive,
    AdaptiveReport* report) const {
  if (!(adaptive.relative_precision > 0.0) &&
      !(adaptive.absolute_precision > 0.0))
    throw std::invalid_argument(
        "measure_scenarios_adaptive: need relative_precision or "
        "absolute_precision > 0 (otherwise no cell can ever converge)");

  const std::size_t cells = plan.cell_count();
  const double horizon = options_.campaign.t_max_hours;
  const sim::ShardPlan shard = shard_plan(cells);
  const std::size_t per_group = shard.superblocks_per_group();
  const AdaptiveSchedule sched = resolve_adaptive_schedule(
      adaptive, options_.replications, shard.superblock());

  ContextFactory factory(*catalog_, *profile_, options_, plan.cells);

  // One accumulator per cell, fed round by round with exactly the fold
  // sequence the exact reducer uses: superblock partials merge in
  // ascending order into a default accumulator, which adopts the first
  // one as it is. Replaying the recorded per-cell prefix through
  // measure_scenario_tasks + reduce_task_partials therefore performs the
  // identical operation sequence — bit-identical summaries.
  AdaptiveReport local;
  AdaptiveReport& r = report ? *report : local;
  r = AdaptiveReport{};
  r.accumulators.resize(cells);
  r.achieved.assign(cells, 0);
  r.cell_rounds.assign(cells, 0);
  r.cell_seconds.assign(cells, 0.0);
  std::vector<std::size_t> folded_sb(cells, 0);  // superblocks folded so far
  std::vector<std::size_t> active(cells);
  for (std::size_t c = 0; c < cells; ++c) active[c] = c;

  std::uint64_t round = 0;
  std::vector<std::uint64_t> tasks;
  std::vector<double> task_seconds;
  std::vector<std::size_t> still;
  while (!active.empty()) {
    const auto round_start = std::chrono::steady_clock::now();
    const obs::Span round_span("adapt.round");
    ++round;
    const std::size_t take =
        round == 1 ? sched.first_superblocks : sched.round_superblocks;
    tasks.clear();
    for (const std::size_t c : active) {
      const std::size_t end = std::min(per_group, folded_sb[c] + take);
      for (std::size_t s = folded_sb[c]; s < end; ++s)
        tasks.push_back(static_cast<std::uint64_t>(c * per_group + s));
    }
    std::vector<IndicatorAccumulator> partials =
        run_tasks(factory, shard, tasks, /*samples=*/nullptr, &task_seconds);

    const auto fold_start = std::chrono::steady_clock::now();
    std::uint64_t round_reps = 0;
    {
      const obs::Span merge_span("adapt.merge");
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        const std::size_t c = static_cast<std::size_t>(tasks[i]) / per_group;
        round_reps += partials[i].count();
        r.accumulators[c].merge(std::move(partials[i]));
        r.cell_seconds[c] += task_seconds[i];
      }
    }
    const auto fold_end = std::chrono::steady_clock::now();

    still.clear();
    for (const std::size_t c : active) {
      folded_sb[c] = std::min(per_group, folded_sb[c] + take);
      r.achieved[c] = r.accumulators[c].count();
      // A cell with every superblock folded holds the whole budget, which
      // is at least max_replications, so the rule retires it too.
      if (sim::should_stop(r.achieved[c],
                           r.accumulators[c].precision_reached(sched.rule),
                           sched.rule))
        r.cell_rounds[c] = round;
      else
        still.push_back(c);
    }

    const double merge_ms = ms_between(fold_start, fold_end);
    const double wall_ms =
        ms_between(round_start, std::chrono::steady_clock::now());
    r.rounds.push_back(RoundLog{round, active.size(), tasks.size(), round_reps,
                                wall_ms, merge_ms});
    const std::size_t retired = active.size() - still.size();
    const AdaptCounters& counters = AdaptCounters::instance();
    counters.rounds.add(1);
    counters.cells_retired.add(retired);
    counters.round_tasks.add(tasks.size());
    counters.round_replications.add(round_reps);
    counters.merge_ns.add(
        static_cast<std::uint64_t>(std::llround(merge_ms * 1e6)));
    // One summary line per round is the operator's convergence view
    // (stderr only — never a byte of CSV/state output).
    obs::progress_line("adapt round %" PRIu64
                       ": retired %zu, active %zu, round %.2fs, fold %.1f ms",
                       round, retired, still.size(), wall_ms / 1000.0,
                       merge_ms);
    active.swap(still);
  }

  for (const std::uint64_t a : r.achieved) r.total_replications += a;
  r.total_rounds = static_cast<std::size_t>(round);
  return summarize_cells(r.accumulators, r.achieved, options_.replications, horizon);
}

std::vector<IndicatorAccumulator> MeasurementEngine::measure_scenario_tasks(
    const ScenarioSweepPlan& plan, const sim::ShardPlan& shard,
    std::span<const std::uint64_t> tasks,
    std::vector<double>* task_seconds) const {
  const sim::ShardPlan expected = shard_plan(plan.cell_count());
  if (shard.groups() != expected.groups() ||
      shard.count() != expected.count() ||
      shard.block() != expected.block() ||
      shard.superblock() != expected.superblock())
    throw std::invalid_argument(
        "measure_scenario_tasks: shard plan does not match the sweep "
        "plan/options (cells, replications, block, and superblock must all "
        "agree or partials will not merge bit-identically)");
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    if (tasks[t] >= shard.task_count())
      throw std::out_of_range("measure_scenario_tasks: task outside the plan");
    if (t > 0 && tasks[t] <= tasks[t - 1])
      throw std::invalid_argument(
          "measure_scenario_tasks: task list must be strictly ascending");
  }
  if (tasks.empty()) {
    if (task_seconds) task_seconds->clear();
    return {};
  }

  // Contexts are built lazily per scheduling round inside run_tasks, so
  // only the cells this task list touches — a handful at a time — ever
  // get a campaign context; shard processes of a huge sweep never pay
  // for the whole fleet's scenarios or reachability indexes.
  ContextFactory factory(*catalog_, *profile_, options_, plan.cells);
  return run_tasks(factory, shard, tasks, /*samples=*/nullptr, task_seconds);
}

}  // namespace divsec::core
