// traced_run.h — the per-layer run: each layer's public functions called
// from the benchmark on one thread, in pipeline order, each call in a span.
//
// Pipeline order and span names (layer = text before the dot):
//   divers.catalog      VariantCatalog::standard(seed), a few times
//   scenario.plan       dist::expand_plan over the whole sweep
//   net.key, net.reach  ReachabilityIndex::structural_key per probed cell,
//                       the constructor once per distinct key
//   attack.tables       CampaignSimulator constructor with the shared index
//   attack.kernel       one CampaignSimulator::run per sample, on the
//                       engine's Rng(cell.seed, rep) streams
//   core.capture        a small retained MeasurementEngine run whose
//                       CellVisitor hands back the samples the engine made
//   core.fold           IndicatorAccumulator::add over one block of them
//   core.merge          IndicatorAccumulator::merge of block partials
//   core.summarize      IndicatorAccumulator::summarize per cell
//   dist.run_shard      the whole sweep on a 1-thread executor: run_shard
//                       (1 of 1)
//   dist.encode/decode  encode_shard_state / decode_shard_state of its state
//   dist.merge          merge_shards
//   report.csv          dist::sweep_csv
// Only the first `probe_cells` cells are probed layer by layer; the
// 1-thread sweep covers all of them and yields the result bytes that must
// equal the 4-thread end-to-end result.
#pragma once

#include <map>
#include <string>

#include "span_log.h"
#include "workloads.h"

namespace perfbench {

struct TracedRun {
  std::string csv;  // result bytes of the 1-thread sweep
  /// Per-layer metrics measured in the traced run, by name.
  std::map<std::string, double> metrics;
  SpanLog log;
  double serial_sweep_s = 0.0;  // 1-thread sweep, spec to result bytes
};

[[nodiscard]] TracedRun run_traced(const Workload& w);

}  // namespace perfbench
