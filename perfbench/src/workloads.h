// workloads.h — the benchmark's workloads and their end-to-end sweeps.
//
// Each workload is one divsec sweep spec, run through dist::run_in_process
// and dist::sweep_csv:
//   scope_fixed       scope_cooling (11 nodes), 3 arms
//   fleet16k_fixed    enterprise16384, 3 arms
// A sweep goes from spec to the result CSV bytes; the workload seed is
// the sweep seed, so it drives the variant catalog, the generated
// topologies and every replication's RNG stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/sweep.h"
#include "sim/executor.h"

namespace perfbench {

struct Workload {
  std::string name;
  divsec::dist::SweepSpec spec;
  /// How many seeds of the run's seed set full sweeps cycle through, and
  /// how many of them the one-replication (setup_s) sweeps cycle through.
  std::size_t seeds = 1;
  std::size_t setup_seeds = 1;
  /// Share of the run spent on one-replication sweeps once every seed of
  /// both sets has been swept.
  double setup_share = 0.0;
  /// How many traced kernel calls per probed cell.
  std::size_t kernel_samples = 1;
  /// Replications per probed cell in the traced run's sample capture.
  std::size_t capture_replications = 1;
  /// How many leading cells the traced run probes layer by layer.
  std::size_t probe_cells = 1;
};

/// Build a workload's spec from the seed; std::invalid_argument for an
/// unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// The same workload with its per-cell budget cut to `replications`.
[[nodiscard]] Workload with_budget(const Workload& w, std::size_t replications);

/// FNV-1a digest of the workload's CSV at the default seed, or 0 when
/// none is pinned.
[[nodiscard]] std::uint64_t golden_digest(const std::string& name);
inline constexpr std::uint64_t kDefaultSeed = 2013;

struct SweepResult {
  std::string csv;      // the result bytes
  double wall_s = 0.0;  // spec to result bytes
};

/// One end-to-end sweep of the workload on `exec`.
[[nodiscard]] SweepResult run_sweep(const Workload& w,
                                    const divsec::sim::Executor& exec);

}  // namespace perfbench
