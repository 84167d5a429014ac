#include "traced_run.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "attack/campaign.h"
#include "core/indicator_accumulator.h"
#include "core/measurement.h"
#include "counts.h"
#include "divers/variants.h"
#include "net/reachability_index.h"
#include "stats/rng.h"

namespace perfbench {

namespace dist = divsec::dist;
namespace core = divsec::core;
namespace net = divsec::net;

namespace {

constexpr int kCatalogRepeats = 5;

/// Nearest-rank quantile of an unsorted sample (copied, then partially
/// sorted).
double quantile(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

TracedRun run_traced(const Workload& w) {
  TracedRun out;
  SpanLog& log = out.log;
  std::map<std::string, double>& m = out.metrics;
  const divsec::sim::Executor serial(1);
  const std::size_t root = log.open("traced");

  // divers: the catalog every shard run builds first.
  std::optional<divsec::divers::VariantCatalog> catalog;
  std::vector<std::uint64_t> catalog_ns;
  for (int i = 0; i < kCatalogRepeats; ++i)
    catalog_ns.push_back(log.time("divers.catalog", [&] {
      catalog.emplace(divsec::divers::VariantCatalog::standard(w.spec.seed));
    }));
  const double catalog_call_ns = quantile(catalog_ns, 0.5);
  m["divers.catalog_ms"] = catalog_call_ns / 1e6;

  // scenario: expansion of the whole sweep plan.
  core::ScenarioSweepPlan plan;
  const double plan_ns = static_cast<double>(
      log.time("scenario.plan", [&] { plan = dist::expand_plan(w.spec, *catalog); }));
  m["scenario.plan_ms"] = plan_ns / 1e6;
  m["scenario.plan_us_per_cell"] =
      plan_ns / 1e3 / static_cast<double>(plan.cell_count());

  const std::size_t probe = std::min(w.probe_cells, plan.cell_count());
  const divsec::attack::ThreatProfile profile = dist::threat_profile(w.spec.threat);
  const core::MeasurementOptions options = dist::sweep_options(w.spec, &serial);
  const dist::SweepMeta meta = dist::make_meta(w.spec);

  // net: one index per distinct structural key among the probed cells —
  // the dedup the engine's context factory performs.
  using IndexPtr = std::shared_ptr<const net::ReachabilityIndex>;
  std::vector<std::pair<net::ReachabilityIndex::StructuralKey, IndexPtr>> indexes;
  std::vector<IndexPtr> cell_reach(probe);
  double reach_ns = 0.0;
  for (std::size_t c = 0; c < probe; ++c) {
    const divsec::attack::Scenario& sc = plan.cells[c].scenario;
    net::ReachabilityIndex::StructuralKey key;
    log.time("net.key", [&] {
      key = net::ReachabilityIndex::structural_key(sc.topology, sc.firewall);
    });
    const auto hit = std::find_if(indexes.begin(), indexes.end(),
                                  [&](const auto& e) { return e.first == key; });
    if (hit != indexes.end()) {
      cell_reach[c] = hit->second;
      continue;
    }
    reach_ns += static_cast<double>(log.time("net.reach", [&] {
      cell_reach[c] =
          std::make_shared<const net::ReachabilityIndex>(sc.topology, sc.firewall);
    }));
    indexes.emplace_back(std::move(key), cell_reach[c]);
  }
  const double reach_build_ns = ratio(reach_ns, static_cast<double>(indexes.size()));
  m["net.reach_ms"] = reach_build_ns / 1e6;

  // attack: per-cell tables over the shared index (the engine copies the
  // scenario into each context, so the copy is part of the call).
  std::vector<std::unique_ptr<divsec::attack::CampaignSimulator>> sims(probe);
  double tables_ns = 0.0;
  for (std::size_t c = 0; c < probe; ++c)
    tables_ns += static_cast<double>(log.time("attack.tables", [&] {
      sims[c] = std::make_unique<divsec::attack::CampaignSimulator>(
          plan.cells[c].scenario, profile, *catalog, options.detection,
          options.campaign, cell_reach[c]);
    }));
  const double tables_cell_ns = tables_ns / static_cast<double>(probe);
  m["attack.tables_us_per_cell"] = tables_cell_ns / 1e3;

  // attack: the kernel, one span per replication.
  std::vector<std::uint64_t> kernel_ns;
  kernel_ns.reserve(probe * w.kernel_samples);
  double kernel_busy = 0.0;
  std::uint64_t kernel_events = 0;
  for (std::size_t c = 0; c < probe; ++c) {
    // Untimed warm-up on the same streams: the engine's kernel runs warm.
    for (std::size_t rep = 0; rep < w.kernel_samples / 4; ++rep) {
      divsec::stats::Rng rng(plan.cells[c].seed, rep);
      (void)sims[c]->run(rng);
    }
    for (std::size_t rep = 0; rep < w.kernel_samples; ++rep) {
      divsec::stats::Rng rng(plan.cells[c].seed, rep);
      std::size_t events = 0;
      const std::uint64_t ns = log.time("attack.kernel", [&] {
        events = sims[c]->run(rng).events_executed;
      });
      kernel_ns.push_back(ns);
      kernel_busy += static_cast<double>(ns);
      kernel_events += events;
    }
  }
  m["attack.kernel_ns_p50"] = quantile(kernel_ns, 0.5);
  m["attack.kernel_ns_p99"] = quantile(kernel_ns, 0.99);
  m["attack.kernel_calls"] = static_cast<double>(kernel_ns.size());
  m["attack.ns_per_event"] = ratio(kernel_busy, static_cast<double>(kernel_events));

  // core: samples the engine itself produced, captured by a visitor on a
  // small retained run of the probed cells.
  core::ScenarioSweepPlan probe_plan;
  probe_plan.cells.assign(plan.cells.begin(),
                          plan.cells.begin() + static_cast<std::ptrdiff_t>(probe));
  core::MeasurementOptions capture = options;
  capture.replications = w.capture_replications;
  std::vector<std::vector<core::IndicatorSample>> samples(probe);
  log.time("core.capture", [&] {
    const core::MeasurementEngine engine(*catalog, profile, capture);
    (void)engine.measure_scenarios(
        probe_plan, [&](std::size_t c, std::span<const core::IndicatorSample> s) {
          samples[c].assign(s.begin(), s.end());
        });
  });

  // core: fold one engine block per span, merge the block partials in
  // ascending order, summarize each cell.
  const std::size_t block = meta.replication_block;
  double fold_ns = 0.0, merge_ns = 0.0, summarize_ns = 0.0;
  std::size_t folded = 0, merges = 0;
  for (std::size_t c = 0; c < probe; ++c) {
    std::vector<core::IndicatorAccumulator> partials;
    for (std::size_t b = 0; b < samples[c].size(); b += block) {
      const std::size_t e = std::min(samples[c].size(), b + block);
      core::IndicatorAccumulator part(meta.horizon_hours, meta.survival_bins);
      fold_ns += static_cast<double>(log.time("core.fold", [&] {
        for (std::size_t i = b; i < e; ++i) part.add(samples[c][i]);
      }));
      folded += e - b;
      partials.push_back(std::move(part));
    }
    core::IndicatorAccumulator acc = std::move(partials.front());
    for (std::size_t k = 1; k < partials.size(); ++k, ++merges)
      merge_ns += static_cast<double>(
          log.time("core.merge", [&] { acc.merge(partials[k]); }));
    summarize_ns += static_cast<double>(
        log.time("core.summarize", [&] { (void)acc.summarize(); }));
  }
  const double fold_rep_ns = ratio(fold_ns, static_cast<double>(folded));
  m["core.fold_ns_per_rep"] = fold_rep_ns;
  m["core.merge_us_per_partial"] = ratio(merge_ns, static_cast<double>(merges)) / 1e3;
  m["core.summarize_us_per_cell"] = summarize_ns / static_cast<double>(probe) / 1e3;

  // The whole sweep on one thread, through the dist layer to the CSV.
  const Counts before = Counts::read();
  const std::uint64_t sweep_begin = log.now_ns();
  double engine_ns = 0.0, encode_ns = 0.0, decode_ns = 0.0, merged_ns = 0.0;
  double csv_ns = 0.0;
  std::string bytes;
  dist::ShardState state;
  engine_ns = static_cast<double>(log.time(
      "dist.run_shard", [&] { state = dist::run_shard(w.spec, 0, 1, &serial); }));
  encode_ns = static_cast<double>(
      log.time("dist.encode", [&] { bytes = dist::encode_shard_state(state); }));
  dist::ShardState back;
  decode_ns = static_cast<double>(
      log.time("dist.decode", [&] { back = dist::decode_shard_state(bytes); }));
  dist::MergeResult merged;
  merged_ns = static_cast<double>(log.time("dist.merge", [&] {
    merged = dist::merge_shards(std::vector<dist::ShardState>{std::move(back)});
  }));
  csv_ns = static_cast<double>(log.time(
      "report.csv", [&] { out.csv = dist::sweep_csv(merged.meta, merged.summaries); }));
  const double reps = static_cast<double>(w.spec.replications * w.spec.policies.size());
  out.serial_sweep_s = static_cast<double>(log.now_ns() - sweep_begin) / 1e9;
  const Counts sweep = Counts::read() - before;

  const double state_bytes = static_cast<double>(bytes.size());
  const dist::StateSectionSizes sections = dist::state_section_sizes(bytes);
  m["dist.state_bytes"] = static_cast<double>(sections.tasks + sections.accumulators);
  m["dist.encode_ms"] = encode_ns / 1e6;
  m["dist.decode_ms"] = decode_ns / 1e6;
  m["dist.encode_bytes_per_ms"] = ratio(state_bytes, encode_ns / 1e6);
  m["dist.decode_bytes_per_ms"] = ratio(state_bytes, decode_ns / 1e6);
  m["dist.merge_ms"] = merged_ns / 1e6;
  m["report.csv_ms"] = csv_ns / 1e6;
  m["report.csv_bytes"] = static_cast<double>(out.csv.size());

  // Engine residual: the 1-thread sweep minus what the probes account for
  // at the call counts the sweep made (sample construction, reduction,
  // scheduling). Every arm runs the same budget, so the kernel time per
  // replication is the mean over the probed arms.
  const double kernel_rep_ns =
      ratio(kernel_busy, static_cast<double>(probe * w.kernel_samples));
  const double accounted =
      catalog_call_ns + plan_ns +
      reach_build_ns * static_cast<double>(sweep.reach_builds) +
      tables_cell_ns * static_cast<double>(sweep.contexts_built) +
      (kernel_rep_ns + fold_rep_ns) * reps +
      static_cast<double>(sweep.encode_ns + sweep.decode_ns);
  m["core.engine_residual_ns_per_rep"] = (engine_ns - accounted) / reps;

  log.close(root);
  const SpanLog::Row traced = log.by_name().at("traced");
  m["traced.wall_s"] = static_cast<double>(traced.total_ns) / 1e9;
  m["traced.unattributed_share"] = ratio(static_cast<double>(traced.self_ns),
                                         static_cast<double>(traced.total_ns));
  return out;
}

}  // namespace perfbench
