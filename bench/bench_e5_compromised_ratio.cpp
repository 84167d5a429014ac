// E5 — indicator (iii), compromised ratio c(t): "the number of
// compromised components at time t with respect to the total number of
// components". Mean step curves from the node-level campaign simulator
// for monoculture / partial / full diversity. Expected shape: the
// monoculture curve rises fast and saturates high; diversity flattens and
// caps it.
//
// `--fleet-smoke` runs only the fleet-scale phases (context residency,
// streaming, elastic, adaptive, codec, obs), skipping the paper-curve
// tables and google-benchmark timings (CI's Release smoke pass). The
// campaign law itself is checked against an exact chain solution in
// tests/test_campaign_oracle.cpp, and fleet throughput by perfbench's
// fleet16k_fixed workload.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <ctime>
#include <numeric>

#include "bench/bench_util.h"
#include "core/indicator_accumulator.h"
#include "core/indicators.h"
#include "core/measurement.h"
#include "core/optimizer.h"
#include "dist/adaptive.h"
#include "dist/cost_model.h"
#include "dist/sweep.h"
#include "net/epidemic.h"
#include "obs/metrics.h"
#include "scenario/presets.h"
#include "sim/executor.h"
#include "sim/shard_plan.h"
#include "sim/stopping.h"
#include "sim/streaming.h"
#include "stats/survival.h"
#include "stats/tdigest.h"

namespace {

using namespace divsec;

double wall_ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

/// Process CPU time in ms. The ratio gates time single-threaded work
/// (1-thread sweeps, sequential shards) on it rather than on the wall
/// clock: time a shared host spends running other tenants never lands
/// on it, so the gates measure the code, not the neighbours.
double cpu_ms() {
  return 1000.0 * static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

/// Trials of the ratio gates: arms alternate trial by trial and each arm
/// keeps its minimum, so a slow spell of the host hits both arms alike
/// and a single spike cannot decide a gate.
constexpr int kGateTrials = 5;

/// Streaming vs buffered aggregation at fleet scale: the identical
/// enterprise256 sweep once through the streaming backend
/// (O(cells + threads × block) aggregation state) and once with a cell
/// visitor, which makes the engine retain the full cells × reps sample
/// matrix. Both fold through the same reduction, so the summaries must
/// be bit-identical; the phase gates on that, on the
/// aggregation-footprint reduction (>= 10x), and on streaming wall time
/// no worse than buffered (15% noise allowance). The streaming pass runs
/// first so the peak-RSS high-water deltas attribute the sample matrix
/// to the buffered pass.
bool streaming_aggregation_phase(std::size_t reps) {
  constexpr std::uint64_t kSeed = 2013;
  const std::string preset = "enterprise256";
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();

  const scenario::VariantPolicy policies[] = {
      scenario::VariantPolicy::kMonoculture,
      scenario::VariantPolicy::kZoneStratified,
  };
  const auto arms = scenario::make_preset_arms(preset, cat, kSeed, policies);
  core::ScenarioSweepPlan plan;
  for (std::size_t i = 0; i < arms.size(); ++i)
    plan.cells.push_back({arms[i].scenario, kSeed + i});

  core::MeasurementOptions mo;
  mo.engine = core::Engine::kCampaign;
  mo.replications = reps;
  mo.seed = kSeed;

  bench::section("E5 streaming: " + preset + " sweep, streaming vs buffered");
  std::printf("cells=%zu replications=%zu block=%zu\n", plan.cell_count(), reps,
              sim::kDefaultReductionBlock);

  const core::MeasurementEngine engine(cat, stuxnet, mo);
  // The visitor only counts: the retained matrix is the engine's own.
  std::size_t visited = 0;
  const auto visit = [&visited](std::size_t,
                                std::span<const core::IndicatorSample> s) {
    visited += s.size();
  };
  {
    // Warm-up pass (allocator, page cache, code paths): the streaming
    // pass runs first for RSS attribution and must not also pay the
    // process cold-start.
    core::MeasurementOptions warm = mo;
    warm.replications = 512;
    const core::MeasurementEngine warm_engine(cat, stuxnet, warm);
    (void)warm_engine.measure_scenarios(plan);
  }

  const double rss_base = bench::peak_rss_mb();
  const auto stream_start = std::chrono::steady_clock::now();
  const auto streamed = engine.measure_scenarios(plan);
  double stream_ms = wall_ms_since(stream_start);
  const double rss_stream = bench::peak_rss_mb();

  const auto buffered_start = std::chrono::steady_clock::now();
  const auto buffered = engine.measure_scenarios(plan, visit);
  double buffered_ms = wall_ms_since(buffered_start);
  const double rss_buffered = bench::peak_rss_mb();

  // Second timed pass of each path (ABAB), keeping the minimum: the
  // wall-clock comparison must not hinge on which path ran first on a
  // cold cache — the RSS deltas above already needed streaming first.
  {
    const auto t0 = std::chrono::steady_clock::now();
    (void)engine.measure_scenarios(plan);
    stream_ms = std::min(stream_ms, wall_ms_since(t0));
    const auto t1 = std::chrono::steady_clock::now();
    (void)engine.measure_scenarios(plan, visit);
    buffered_ms = std::min(buffered_ms, wall_ms_since(t1));
  }

  // Both paths fold through the same blocked reduction: exact agreement.
  bool identical = streamed.size() == buffered.size() &&
                   visited == 2 * plan.cell_count() * reps;
  for (std::size_t c = 0; identical && c < streamed.size(); ++c)
    identical = streamed[c].tta.mean() == buffered[c].tta.mean() &&
                streamed[c].ttsf.variance() == buffered[c].ttsf.variance() &&
                streamed[c].successes == buffered[c].successes &&
                streamed[c].tta_censored == buffered[c].tta_censored &&
                streamed[c].tta_event.restricted_mean ==
                    buffered[c].tta_event.restricted_mean;

  // Aggregation state the two backends allocate (deterministic, unlike
  // the RSS high-water deltas also recorded below): the buffered sample
  // matrix vs the per-cell accumulators, one scheduling round's task
  // accumulators (4 x threads), one in-flight block partial per thread
  // and the reducer's parked partials (at most 2 x (threads - 1)). Per
  // accumulator, the heap beyond the struct is two survival count arrays,
  // two t-digests at their 2x-compression compaction ceiling, and the
  // ratio-curve bin sums; per buffered sample, the ratio_counts vector.
  const double accumulator_bytes =
      static_cast<double>(sizeof(core::IndicatorAccumulator)) +
      2.0 * static_cast<double>((mo.survival_bins + (mo.survival_bins + 1)) *
                                sizeof(std::uint64_t)) +
      2.0 * 2.0 * stats::CensoredTimeAccumulator::kSketchCompression *
          static_cast<double>(sizeof(stats::TDigest::Centroid)) +
      static_cast<double>(mo.survival_bins * sizeof(std::uint64_t));
  const int threads = static_cast<int>(engine.executor().thread_count());
  const auto live = static_cast<std::size_t>(4 * threads + threads +
                                             2 * (threads - 1));
  const double streaming_mb =
      static_cast<double>(plan.cell_count() + live) * accumulator_bytes /
      (1024.0 * 1024.0);
  const double buffered_mb =
      static_cast<double>(plan.cell_count()) * static_cast<double>(reps) *
      (static_cast<double>(sizeof(core::IndicatorSample)) +
       static_cast<double>(mo.survival_bins * sizeof(std::uint32_t))) /
      (1024.0 * 1024.0);
  const double footprint_ratio =
      streaming_mb > 0.0 ? buffered_mb / streaming_mb : 0.0;
  const double rss_stream_delta = rss_stream - rss_base;
  const double rss_buffered_delta = rss_buffered - rss_stream;
  const double wall_ratio = stream_ms > 0.0 ? buffered_ms / stream_ms : 0.0;

  bench::row({"path", "wall ms", "agg MiB", "peak-RSS delta MiB"}, 20);
  bench::row({"streaming", bench::fmt(stream_ms, 1), bench::fmt(streaming_mb, 3),
              bench::fmt(rss_stream_delta, 1)},
             20);
  bench::row({"buffered", bench::fmt(buffered_ms, 1), bench::fmt(buffered_mb, 3),
              bench::fmt(rss_buffered_delta, 1)},
             20);
  std::printf(
      "aggregation footprint reduction: %.0fx   wall buffered/streaming: "
      "%.2f   summaries identical: %s\n",
      footprint_ratio, wall_ratio, identical ? "yes" : "NO (BUG)");
  std::printf(
      "censor-aware TTA (monoculture): rmean=%.1f h  biased mean=%.1f h  "
      "censored=%zu/%zu\n",
      streamed[0].tta_event.restricted_mean, streamed[0].tta.mean(),
      streamed[0].tta_censored, reps);

  bench::write_bench_json(
      "BENCH_e5_streaming.json",
      {{"e5.streaming_sweep_2x" + std::to_string(reps), stream_ms, threads, 1.0,
        streaming_mb},
       {"e5.buffered_sweep_2x" + std::to_string(reps), buffered_ms, threads,
        stream_ms > 0.0 ? buffered_ms / stream_ms : 0.0, buffered_mb},
       {"e5.streaming_peak_rss_delta", stream_ms, threads, 1.0, rss_stream_delta},
       {"e5.buffered_peak_rss_delta", buffered_ms, threads, 1.0,
        rss_buffered_delta}});

  // Measured backstop for the analytic footprint ratio: had the
  // streaming path materialized the sample matrix after all, its
  // peak-RSS delta would grow by ~buffered_mb — require it to stay well
  // under half that (1 MiB floor for allocator noise; skipped where
  // getrusage is unavailable).
  const bool rss_ok = !std::isfinite(rss_stream_delta) ||
                      rss_stream_delta <= std::max(1.0, 0.5 * buffered_mb);
  // Wall-clock gate with tolerance: the paths do the same simulation
  // work; anything past 15% is a real streaming-backend regression.
  return identical && footprint_ratio >= 10.0 && rss_ok &&
         stream_ms <= buffered_ms * 1.15;
}

/// Elastic scheduling at fleet scale: the same skewed-policy
/// enterprise256 sweep sharded two ways — contiguous balanced task
/// ranges (the pre-elastic assignment) vs a cost-weighted LPT plan built
/// from the costs the static run itself measured. The monoculture arm
/// simulates ~5x slower than the diversified arms, so the static split
/// parks the whole expensive cell on the front shards while the tail
/// idles; LPT deals its superblocks across the fleet. Gates: the merged
/// measurement CSVs must agree byte for byte (the elastic deal must not
/// move a single bit), and the worst shard's measured task work must
/// improve by >= 1.3x. Shards run sequentially in one process, so
/// per-shard work times are comparable even on a single-core runner;
/// wall times (which add per-process plan expansion) are reported and
/// recorded alongside. Both deals run kGateTrials alternating times and
/// every shard keeps its minimum work and wall.
bool elastic_scheduling_phase() {
  dist::SweepSpec spec;
  spec.preset = "enterprise256";
  spec.seed = 2013;
  spec.replications = 24576;
  spec.replication_block = 256;
  spec.superblock = 3072;  // 8 superblocks per cell -> 24 tasks over 3 cells
  constexpr std::size_t kShards = 4;

  bench::section("E5 elastic: cost-weighted LPT vs static contiguous shards (" +
                 spec.preset + ")");
  std::printf("cells=%zu replications=%zu superblock=%zu tasks=%zu shards=%zu\n",
              spec.policies.size(), spec.replications, spec.superblock,
              spec.policies.size() * (spec.replications / spec.superblock),
              kShards);

  const auto shard_work_s = [](const dist::ShardState& s) {
    double total = 0.0;
    for (const auto& c : s.cost.cells) total += c.seconds;
    return total;
  };

  // Static contiguous shards — also the calibration run: every shard
  // state carries the per-cell costs it measured.
  std::vector<dist::ShardState> static_states;
  for (std::size_t i = 0; i < kShards; ++i)
    static_states.push_back(dist::run_shard(spec, i, kShards));
  const dist::MergeResult static_merged = dist::merge_shards(static_states);

  // Cost-weighted plan from the merged measurements, then the same sweep
  // through the explicit task lists.
  const sim::ShardPlan task_space = dist::sweep_shard_plan(static_merged.meta);
  const auto assignment = dist::cost_weighted_assignment(
      task_space, static_merged.cost, kShards);
  std::vector<dist::ShardState> elastic_states;
  for (std::size_t i = 0; i < kShards; ++i)
    elastic_states.push_back(
        dist::run_shard_tasks(spec, assignment[i], i, kShards));
  const dist::MergeResult elastic_merged = dist::merge_shards(elastic_states);

  const bool identical =
      dist::sweep_csv(static_merged.meta, static_merged.summaries) ==
      dist::sweep_csv(elastic_merged.meta, elastic_merged.summaries);

  // Per-shard minimum work (s) and wall (ms) over the alternating
  // trials; the first trial is the pair of runs above.
  struct Times {
    std::vector<double> work, wall;
    void note(std::size_t i, const dist::ShardState& s, double work_s) {
      if (work.size() <= i) {
        work.push_back(work_s);
        wall.push_back(s.meta.wall_ms);
        return;
      }
      work[i] = std::min(work[i], work_s);
      wall[i] = std::min(wall[i], s.meta.wall_ms);
    }
  };
  Times fixed, dealt;
  for (int t = 0; t < kGateTrials; ++t)
    for (std::size_t i = 0; i < kShards; ++i) {
      const dist::ShardState s =
          t == 0 ? static_states[i] : dist::run_shard(spec, i, kShards);
      fixed.note(i, s, shard_work_s(s));
      const dist::ShardState e =
          t == 0 ? elastic_states[i]
                 : dist::run_shard_tasks(spec, assignment[i], i, kShards);
      dealt.note(i, e, shard_work_s(e));
    }

  double static_worst_work = 0.0, static_worst_wall = 0.0;
  double elastic_worst_work = 0.0, elastic_worst_wall = 0.0;
  bench::row({"shard", "static work s", "static wall ms", "elastic work s",
              "elastic wall ms"},
             17);
  for (std::size_t i = 0; i < kShards; ++i) {
    static_worst_work = std::max(static_worst_work, fixed.work[i]);
    elastic_worst_work = std::max(elastic_worst_work, dealt.work[i]);
    static_worst_wall = std::max(static_worst_wall, fixed.wall[i]);
    elastic_worst_wall = std::max(elastic_worst_wall, dealt.wall[i]);
    bench::row({bench::fmt_int(static_cast<long long>(i)),
                bench::fmt(fixed.work[i], 3), bench::fmt(fixed.wall[i], 1),
                bench::fmt(dealt.work[i], 3), bench::fmt(dealt.wall[i], 1)},
               17);
  }
  const double work_gain =
      elastic_worst_work > 0.0 ? static_worst_work / elastic_worst_work : 0.0;
  const double wall_gain =
      elastic_worst_wall > 0.0 ? static_worst_wall / elastic_worst_wall : 0.0;
  std::printf(
      "worst shard: work %.3f s -> %.3f s (%.2fx), wall %.1f ms -> %.1f ms "
      "(%.2fx)   merged CSV identical: %s\n",
      static_worst_work, elastic_worst_work, work_gain, static_worst_wall,
      elastic_worst_wall, wall_gain, identical ? "yes" : "NO (BUG)");

  std::vector<util::BenchRecord> records;
  for (std::size_t i = 0; i < kShards; ++i) {
    records.push_back({"e5.static_shard" + std::to_string(i), fixed.wall[i],
                       static_cast<int>(static_states[i].meta.threads), 1.0});
    records.push_back({"e5.elastic_shard" + std::to_string(i), dealt.wall[i],
                       static_cast<int>(elastic_states[i].meta.threads), 1.0});
  }
  // The trajectory records CI gates on: `speedup` is the worst-shard
  // improvement of the cost-weighted deal over the static one.
  records.push_back({"e5.elastic_worst_shard_work", elastic_worst_work * 1e3,
                     1, work_gain});
  records.push_back({"e5.elastic_worst_shard_wall", elastic_worst_wall, 1,
                     wall_gain});
  bench::write_bench_json("BENCH_e5_elastic.json", records);

  return identical && work_gain >= 1.3;
}

/// Adaptive controller vs the fixed budget: the PR-7 acceptance gate.
/// The same skewed enterprise256 sweep the elastic phase runs, but
/// driven by the variance-based stopping rule — every cell must reach
/// the CI half-width target (1% relative with a 0.002 absolute floor —
/// tight enough that the cells stop at genuinely different counts) or
/// its budget cap, the controller must spend >= 3x fewer replications
/// than the fixed budget, and a 2-shard replay of the recorded per-cell
/// achieved counts must reproduce the adaptive CSV byte for byte.
/// Records land in BENCH_e5_adaptive.json; the per-round merge record
/// carries its own sub-millisecond noise floor (wall_floor_ms) so the
/// gate actually sees it instead of skipping it under the global 5 ms
/// CLI floor.
bool adaptive_sweep_phase() {
  dist::SweepSpec spec;
  spec.preset = "enterprise256";
  spec.seed = 2013;
  spec.replications = 24576;  // the per-cell budget cap
  spec.replication_block = 256;
  spec.superblock = 512;  // 48 superblocks per cell

  core::AdaptiveOptions options;
  options.relative_precision = 0.01;
  options.absolute_precision = 0.002;

  bench::section("E5 adaptive: variance-driven replication allocation (" +
                 spec.preset + ")");
  std::printf("cells=%zu budget=%zu/cell superblock=%zu "
              "precision=1%% abs-floor=0.002\n",
              spec.policies.size(), spec.replications, spec.superblock);

  const dist::MergeResult result = dist::run_adaptive(spec, options);

  // Per-cell verdict against the same resolved rule the loop used.
  const core::AdaptiveSchedule sched = core::resolve_adaptive_schedule(
      options, spec.replications, spec.superblock);
  bool precision_ok = true;
  bench::row({"cell", "achieved", "rounds", "verdict"}, 14);
  for (std::size_t c = 0; c < result.meta.cells; ++c) {
    const bool converged = result.accumulators[c].precision_reached(sched.rule);
    const bool stopped =
        sim::should_stop(result.meta.achieved[c], converged, sched.rule);
    if (!stopped) precision_ok = false;
    bench::row({bench::fmt_int(static_cast<long long>(c)),
                bench::fmt_int(static_cast<long long>(result.meta.achieved[c])),
                bench::fmt_int(static_cast<long long>(result.cell_rounds[c])),
                !stopped ? "NEITHER (BUG)" : (converged ? "converged" : "capped")},
               14);
  }

  const std::uint64_t total_replications = std::accumulate(
      result.meta.achieved.begin(), result.meta.achieved.end(),
      std::uint64_t{0});
  const std::uint64_t budget_replications =
      result.meta.cells * result.meta.replications;
  const double savings =
      total_replications > 0 ? static_cast<double>(budget_replications) /
                                   static_cast<double>(total_replications)
                             : 0.0;

  // Replay the recorded achieved counts across a 2-shard cut the run
  // never used and demand the byte-identical CSV — the reproducibility
  // contract is the counts, never the round schedule.
  const dist::SweepSpec replay_spec = dist::spec_from_meta(result.meta);
  std::vector<dist::ShardState> replay_states;
  for (std::size_t i = 0; i < 2; ++i)
    replay_states.push_back(dist::run_shard(replay_spec, i, 2));
  const dist::MergeResult replayed = dist::merge_shards(replay_states);
  const bool identical =
      dist::sweep_csv(result.meta, result.summaries) ==
      dist::sweep_csv(replayed.meta, replayed.summaries);

  double merge_total_ms = 0.0, replay_worst_wall = 0.0;
  for (const core::RoundLog& r : result.rounds) merge_total_ms += r.merge_ms;
  for (const auto& s : replay_states)
    replay_worst_wall = std::max(replay_worst_wall, s.meta.wall_ms);

  std::printf("replications %llu of %llu budget (%.2fx saved) in %zu "
              "round(s), %.1f ms   2-shard replay CSV identical: %s\n",
              static_cast<unsigned long long>(total_replications),
              static_cast<unsigned long long>(budget_replications),
              savings, result.rounds.size(), result.meta.wall_ms,
              identical ? "yes" : "NO (BUG)");

  std::vector<util::BenchRecord> records;
  // `speedup` on the sweep record is the replications-saved ratio — the
  // metric CI gates against the >= 3x acceptance bar (speedup may not
  // drop more than 20% below baseline).
  records.push_back({"e5.adaptive_sweep", result.meta.wall_ms,
                     static_cast<int>(result.meta.threads), savings});
  records.push_back({"e5.adaptive_replay_worst_shard", replay_worst_wall,
                     static_cast<int>(replay_states[0].meta.threads), 1.0});
  // Sub-millisecond metric: opts into gating with its own noise floor
  // instead of hiding under the global 5 ms skip.
  util::BenchRecord merge_record{"e5.adaptive_round_merge_total",
                                 merge_total_ms, 1, 1.0};
  merge_record.wall_floor_ms = 0.05;
  records.push_back(merge_record);
  bench::write_bench_json("BENCH_e5_adaptive.json", records);

  return precision_ok && identical && savings >= 3.0;
}

/// Context residency at 10^4 cells: a same-topology enterprise128 sweep
/// through measure_scenarios with streaming aggregation. The engine
/// builds contexts lazily per scheduling round and shares the one
/// reachability index, so the sweep's peak-RSS delta — measured AFTER
/// plan construction, whose 10^4 Scenario copies (one shared topology
/// storage, per-copy software and target lists) are the caller's own
/// storage — must stay far below what 10^4 eager contexts would cost
/// (the pre-SoA path held every context for the whole call). Gates:
/// one reachability build, peak residency a small multiple of the round
/// width, RSS delta <= 64 MiB. The counters come from the obs::
/// registry (core.context.*, the successor of the bespoke ContextStats
/// struct); the registry is process-cumulative, so the phase reads a
/// delta by zeroing it first. A DIVSEC_OBS=0 build keeps the RSS gate
/// and skips the counter gate (the counters read as zero). Records land
/// in BENCH_e5_soa.json.
bool context_residency_phase() {
  constexpr std::size_t kCells = 10000;
  constexpr std::uint64_t kSeed = 2013;
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  const scenario::GeneratedScenario fleet = scenario::make_preset(
      "enterprise128", cat, kSeed, scenario::VariantPolicy::kMonoculture);

  bench::section("E5 SoA: context residency, 10^4-cell enterprise128 sweep");

  core::ScenarioSweepPlan plan;
  plan.cells.reserve(kCells);
  for (std::size_t c = 0; c < kCells; ++c)
    plan.cells.push_back({fleet.scenario, kSeed + c});

  core::MeasurementOptions mo;
  mo.engine = core::Engine::kCampaign;
  mo.replications = 4;
  mo.seed = kSeed;
  mo.campaign.t_max_hours = 24.0;  // residency phase, not a throughput one
  const core::MeasurementEngine engine(cat, stuxnet, mo);

  obs::reset();
  const double rss_base = bench::peak_rss_mb();  // after plan construction
  const auto start = std::chrono::steady_clock::now();
  const auto summaries = engine.measure_scenarios(plan);
  const double wall_ms = wall_ms_since(start);
  const double rss_delta = bench::peak_rss_mb() - rss_base;

  const obs::Snapshot snap = obs::snapshot();
  const std::uint64_t built = snap.counter("core.context.built");
  const std::uint64_t reach_builds = snap.counter("core.context.reach_builds");
  const std::uint64_t peak_live = snap.gauge("core.context.peak_live");

  const std::size_t threads = engine.executor().thread_count();
  std::printf(
      "cells=%zu reps=%zu horizon=%.0fh threads=%zu: wall %.1f ms, contexts "
      "built=%llu peak_live=%llu reach_builds=%llu, peak-RSS delta %.1f MiB\n",
      plan.cell_count(), mo.replications, mo.campaign.t_max_hours, threads,
      wall_ms, static_cast<unsigned long long>(built),
      static_cast<unsigned long long>(peak_live),
      static_cast<unsigned long long>(reach_builds), rss_delta);

  bench::write_bench_json(
      "BENCH_e5_soa.json",
      {{"e5.soa_sweep10000_wall", wall_ms, static_cast<int>(threads), 1.0},
       {"e5.soa_sweep10000_peak_rss_delta", wall_ms, static_cast<int>(threads),
        1.0, std::isfinite(rss_delta) ? rss_delta : 0.0}});

  const bool residency_ok =
      !obs::enabled() || (built == kCells && reach_builds == 1 &&
                          peak_live <= 8 * threads + 8);
  const bool rss_ok = !std::isfinite(rss_delta) || rss_delta <= 64.0;
  return summaries.size() == kCells && residency_ok && rss_ok;
}

/// Telemetry-overhead phase: the identical enterprise256 in-process
/// sweep with the obs:: hot path recording vs runtime-disabled
/// (obs::set_enabled(false) — the same relaxed-load kill switch every
/// Counter::add checks). The phase is pinned to one thread, so it
/// measures the recording hot path rather than pool scheduling, and
/// times each sweep on process CPU time (see cpu_ms). Each of kTrials
/// trials alternates single sweeps of the two arms (ABBA order) until
/// each arm has spent >= 200 ms, and yields the ratio of its two arm
/// totals. Reported: each arm's per-sweep minimum and spread (max/min - 1)
/// over the trials, and the median trial ratio. Two gates:
///   * the median trial ratio is <= 1.02 (the acceptance bar of the
///     striped-atomic hot path) — the median of kTrials ratios over
///     >= 200 ms arms, so one slow spell of the host cannot decide it;
///   * the sweep CSV is byte-identical across every run of both arms —
///     the out-of-band invariant, checked at bench scale.
/// Records land in BENCH_e5_obs.json for the CI trajectory.
bool obs_overhead_phase() {
  constexpr int kTrials = 15;
  constexpr double kMinArmMs = 200.0;
  constexpr double kBar = 1.02;
  dist::SweepSpec spec;
  spec.preset = "enterprise256";
  spec.seed = 2013;
  spec.replications = 4096;
  spec.horizon_hours = 720.0;

  bench::section("E5 obs: telemetry overhead, " + spec.preset +
                 " metrics-on vs metrics-off, 1 thread");

  const sim::Executor executor(1);
  const dist::SweepMeta meta = dist::make_meta(spec);
  const bool was_enabled = obs::enabled();

  std::string reference_csv;
  bool csv_identical = true;
  const auto sweep_ms = [&](bool recording) {
    obs::set_enabled(recording);
    const double start = cpu_ms();
    const auto summaries = dist::run_in_process(spec, &executor);
    const double ms = cpu_ms() - start;
    const std::string csv = dist::sweep_csv(meta, summaries);
    if (reference_csv.empty()) reference_csv = csv;
    else if (csv != reference_csv) csv_identical = false;
    return ms;
  };
  (void)sweep_ms(true);  // warm-up

  std::vector<double> off, on, ratio;  // per trial (per-sweep ms, on/off)
  for (int t = 0; t < kTrials; ++t) {
    double off_ms = 0.0, on_ms = 0.0;
    int n = 0;
    for (; off_ms < kMinArmMs || on_ms < kMinArmMs; ++n) {
      const bool off_first = n % 2 == 0;
      (off_first ? off_ms : on_ms) += sweep_ms(!off_first);
      (off_first ? on_ms : off_ms) += sweep_ms(off_first);
    }
    off.push_back(off_ms / n);
    on.push_back(on_ms / n);
    ratio.push_back(on_ms / off_ms);
  }
  obs::set_enabled(was_enabled);

  const auto min_of = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  const auto spread_pct = [&](const std::vector<double>& v) {
    return (*std::max_element(v.begin(), v.end()) / min_of(v) - 1.0) * 100.0;
  };
  std::sort(ratio.begin(), ratio.end());
  const double median = ratio[ratio.size() / 2];
  std::printf(
      "threads=1 trials=%d (>= %.0f ms CPU per arm each): per-sweep min "
      "metrics-off %.2f ms (spread %.1f%%), metrics-on %.2f ms (spread "
      "%.1f%%)\n"
      "overhead: median %+.2f%% (gate <= +2%%), trial ratios %.3f..%.3f, "
      "CSV identical: %s\n",
      kTrials, kMinArmMs, min_of(off), spread_pct(off), min_of(on),
      spread_pct(on), (median - 1.0) * 100.0, ratio.front(), ratio.back(),
      csv_identical ? "yes" : "NO");

  bench::write_bench_json(
      "BENCH_e5_obs.json",
      {{"e5.obs_sweep_metrics_off", min_of(off), 1, 1.0},
       {"e5.obs_sweep_metrics_on", min_of(on), 1, 1.0 / median}});

  return csv_identical && median <= kBar;
}

/// State-codec phase at 10^4 cells: the v4 packed shard-state format
/// against its own fixed-width field walk (identical sections, 8-byte
/// scalars instead of varints/RLE — the honest "uncompressed
/// equivalent"). A 10^4-cell enterprise256 sweep with a small
/// fixed budget is encoded once as a single shard and once as a 4-shard
/// cut, every state pushed through encode -> decode -> re-encode (the
/// bytes a real shard file carries), and both cuts merged. Gates: the
/// re-encode is byte-identical (exact state round-trip), the merged CSVs
/// of the two cuts agree byte for byte (the codec moves no bits), and
/// the packed encoding is >= 4x smaller than the fixed-width equivalent.
/// Encoded size lands in BENCH_e5_codec.json as `state_bytes`, which CI
/// gates lower-is-better so the format cannot quietly bloat back.
bool codec_phase() {
  constexpr std::size_t kCells = 10000;
  constexpr std::size_t kShards = 4;
  dist::SweepSpec spec;
  spec.preset = "enterprise256";
  spec.seed = 2013;
  spec.replications = 8;
  spec.replication_block = 8;
  spec.superblock = 8;        // one superblock task per cell
  spec.horizon_hours = 24.0;  // codec phase, not a throughput one
  spec.policies.clear();
  spec.policies.reserve(kCells);
  constexpr scenario::VariantPolicy kCycle[3] = {
      scenario::VariantPolicy::kMonoculture,
      scenario::VariantPolicy::kZoneStratified,
      scenario::VariantPolicy::kRandomPerNode};
  for (std::size_t c = 0; c < kCells; ++c)
    spec.policies.push_back(kCycle[c % 3]);

  bench::section("E5 codec: v4 packed shard state, 10^4-cell " + spec.preset +
                 " sweep");

  const auto run_start = std::chrono::steady_clock::now();
  const dist::ShardState single = dist::run_shard(spec, 0, 1);
  const double sweep_ms = wall_ms_since(run_start);

  const auto encode_start = std::chrono::steady_clock::now();
  const std::string encoded = dist::encode_shard_state(single);
  const double encode_ms = wall_ms_since(encode_start);
  const auto decode_start = std::chrono::steady_clock::now();
  const dist::ShardState decoded = dist::decode_shard_state(encoded);
  const double decode_ms = wall_ms_since(decode_start);
  const bool roundtrip = dist::encode_shard_state(decoded) == encoded;

  const std::size_t equivalent = dist::uncompressed_equivalent_bytes(single);
  const double ratio =
      encoded.empty() ? 0.0
                      : static_cast<double>(equivalent) /
                            static_cast<double>(encoded.size());
  const dist::StateSectionSizes sizes = dist::state_section_sizes(encoded);
  bench::row({"section", "header", "meta", "tasks", "accums", "cost", "rounds"},
             12);
  bench::row({"bytes", bench::fmt_int(static_cast<long long>(sizes.header)),
              bench::fmt_int(static_cast<long long>(sizes.meta)),
              bench::fmt_int(static_cast<long long>(sizes.tasks)),
              bench::fmt_int(static_cast<long long>(sizes.accumulators)),
              bench::fmt_int(static_cast<long long>(sizes.cost)),
              bench::fmt_int(static_cast<long long>(sizes.rounds))},
             12);

  // The 4-shard cut, with every state pushed through the codec exactly
  // as the file-based flow would; merged CSVs of the two cuts must agree
  // byte for byte.
  std::vector<dist::ShardState> shard_states;
  for (std::size_t i = 0; i < kShards; ++i)
    shard_states.push_back(dist::decode_shard_state(
        dist::encode_shard_state(dist::run_shard(spec, i, kShards))));
  const dist::MergeResult merged_single = dist::merge_shards({decoded});
  const dist::MergeResult merged_cut = dist::merge_shards(shard_states);
  const bool identical =
      dist::sweep_csv(merged_single.meta, merged_single.summaries) ==
      dist::sweep_csv(merged_cut.meta, merged_cut.summaries);

  std::printf(
      "cells=%zu reps=%zu: packed %zu bytes vs %zu fixed-width (%.2fx), "
      "encode %.1f ms decode %.1f ms\n"
      "re-encode byte-identical: %s   1-vs-%zu-shard merged CSV identical: "
      "%s\n",
      kCells, spec.replications, encoded.size(), equivalent, ratio, encode_ms,
      decode_ms, roundtrip ? "yes" : "NO (BUG)", kShards,
      identical ? "yes" : "NO (BUG)");

  // `speedup` on the encode record is the compression ratio (>= 4x bar:
  // the -20% speedup tolerance keeps it above ~3.2 even on refresh);
  // `state_bytes` is the absolute ceiling CI gates lower-is-better.
  util::BenchRecord encode_rec{"e5.codec_encode_10000c", encode_ms, 1, ratio};
  encode_rec.wall_floor_ms = 0.5;
  encode_rec.state_bytes = static_cast<double>(encoded.size());
  util::BenchRecord decode_rec{"e5.codec_decode_10000c", decode_ms, 1, 1.0};
  decode_rec.wall_floor_ms = 0.5;
  bench::write_bench_json(
      "BENCH_e5_codec.json",
      {{"e5.codec_sweep10000_wall", sweep_ms,
        static_cast<int>(single.meta.threads), 1.0},
       encode_rec, decode_rec});

  return roundtrip && identical && ratio >= 4.0;
}

struct Setup {
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  core::SystemDescription desc = core::make_scope_description(cat);
  attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  core::MeasurementOptions mo;
  Setup() {
    mo.engine = core::Engine::kCampaign;
    mo.replications = 200;
    mo.seed = 51;
  }
};

void print_curves() {
  Setup s;
  std::vector<double> grid;
  for (double t = 0.0; t <= 2160.0; t += 120.0) grid.push_back(t);

  const core::Configuration mono = s.desc.baseline_configuration();
  stats::Rng rng(1);
  const core::Configuration partial = core::place_resilient_components(
      s.desc, 2, core::PlacementStrategy::kStrategic, s.stuxnet, s.mo, rng);
  const core::Configuration full = core::place_resilient_components(
      s.desc, 7, core::PlacementStrategy::kStrategic, s.stuxnet, s.mo, rng);

  const auto c_mono =
      core::mean_compromised_ratio_curve(s.desc, mono, s.stuxnet, s.mo, grid);
  const auto c_part =
      core::mean_compromised_ratio_curve(s.desc, partial, s.stuxnet, s.mo, grid);
  const auto c_full =
      core::mean_compromised_ratio_curve(s.desc, full, s.stuxnet, s.mo, grid);

  // Mean-field SI baseline over the same reachability graph (no exploit
  // failure, no detection): the upper envelope a pure worm model gives.
  const attack::Scenario base = s.desc.instantiate(mono);
  net::MeanFieldEpidemic epidemic(
      base.topology, base.firewall,
      {net::Channel::kUsb, net::Channel::kSmbShare, net::Channel::kPrintSpooler},
      base.entry_nodes, {0.02, 0.5});
  const auto c_mf = epidemic.ratio_curve(grid);

  bench::section("E5: mean compromised ratio c(t), 200 campaigns each");
  bench::row({"t (h)", "monoculture", "2 diversified", "7 diversified",
              "mean-field SI"},
             16);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    bench::row({bench::fmt(grid[i], 0), bench::fmt(c_mono[i]),
                bench::fmt(c_part[i]), bench::fmt(c_full[i]),
                bench::fmt(c_mf[i])},
               16);
  }
  std::printf(
      "\nShape check: monoculture saturates high and early, tracking the\n"
      "mean-field SI envelope; each diversity step lowers both the growth\n"
      "rate and the plateau of c(t) far below what a topology-only worm\n"
      "model can explain — the reduction is the diversity effect.\n");
}

void BM_OneCampaign(benchmark::State& state) {
  Setup s;
  const attack::CampaignSimulator sim(
      s.desc.instantiate(s.desc.baseline_configuration()), s.stuxnet, s.cat);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    stats::Rng rng(9, seed++);
    auto r = sim.run(rng);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_OneCampaign)->Unit(benchmark::kMicrosecond);

void BM_MeanRatioCurve(benchmark::State& state) {
  Setup s;
  s.mo.replications = 50;
  std::vector<double> grid{0, 500, 1000, 1500, 2000};
  for (auto _ : state) {
    auto c = core::mean_compromised_ratio_curve(
        s.desc, s.desc.baseline_configuration(), s.stuxnet, s.mo, grid);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MeanRatioCurve)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // The acceptance-scale streaming comparison: >= 1e5 replications per
  // enterprise256 cell.
  constexpr std::size_t kStreamingReps = 100000;
  // CI smoke mode: only the fleet-scale phases (JSON emission included),
  // skipping the slower paper-curve tables and google-benchmark timings.
  // Exits non-zero if any phase's gate fails.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fleet-smoke") == 0) {
      const bool soa_ok = context_residency_phase();
      const bool streaming_ok = streaming_aggregation_phase(kStreamingReps);
      const bool elastic_ok = elastic_scheduling_phase();
      const bool adaptive_ok = adaptive_sweep_phase();
      const bool codec_ok = codec_phase();
      const bool obs_ok = obs_overhead_phase();
      return soa_ok && streaming_ok && elastic_ok && adaptive_ok && codec_ok &&
                     obs_ok
                 ? 0
                 : 1;
    }
  }
  print_curves();
  const bool soa_ok = context_residency_phase();
  const bool streaming_ok = streaming_aggregation_phase(kStreamingReps);
  const bool elastic_ok = elastic_scheduling_phase();
  const bool adaptive_ok = adaptive_sweep_phase();
  const bool codec_ok = codec_phase();
  const bool obs_ok = obs_overhead_phase();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return soa_ok && streaming_ok && elastic_ok && adaptive_ok && codec_ok && obs_ok
             ? 0
             : 1;
}
