// divsec_sweep — distributed scenario sweeps from the command line.
//
// A sweep is named by its spec (preset, policy arms, threat, seed,
// replication/aggregation parameters); every process re-expands the
// identical plan from the scenario registry, so shards ship no topology
// bytes — only accumulator state. The three subcommands:
//
//   run     in-process sweep (no --shard): writes <out>_measurements.csv
//           and <out>_summary.json — the single-process reference.
//           With --shard i/K: computes shard i's superblock-task
//           partials and writes the versioned state file <out> (default
//           <preset>_shard<i>of<K>.state). With --tasks PLAN --shard i:
//           computes the explicit task list shard i owns in a
//           cost-weighted plan file instead of the contiguous range.
//   plan    cost-weighted shard planner: merges the per-cell cost models
//           measured by prior runs (--weights *.state, any compatible
//           sweep — cost transfers across replication counts) and deals
//           the superblock tasks to --shards K by LPT, writing a task
//           plan `run --tasks` executes. Every shard state records
//           costs, so the first (statically sharded) run of a sweep is
//           its own calibration.
//   merge   exact cross-process reducer: validates shard compatibility
//           and exact task coverage (contiguous ranges, LPT lists, or
//           any mix), folds partials in ascending (cell, superblock)
//           order, and writes <out>_measurements.csv +
//           <out>_summary.json + <out>_merged.state. Output is
//           bit-identical to the in-process `run` on the same spec —
//           for any shard count, including 1, and for any exact-coverage
//           assignment of tasks to shards.
//   adapt   variance-driven sweep (dist/adaptive.h): the engine's
//           adaptive round loop runs only the unconverged cells' next
//           superblocks each round and retires a cell once its CI
//           half-width passes the stopping rule. Writes the merged
//           artifacts plus <out>_adaptive.state, whose per-cell achieved
//           counts are the reproducibility contract.
//           With --replay STATE, `run` re-executes exactly the recorded
//           achieved counts — any thread count, any --shard i/K cut —
//           and merging reproduces the adaptive CSV byte for byte.
//   inspect print a state file's JSON header, its per-section byte
//           breakdown (framing, meta, tasks, accumulators, cost, rounds)
//           with the compression ratio against the fixed-width
//           equivalent, per-cell summary lines (achieved replications,
//           measured sec/rep, termination round for adaptive states),
//           the adaptive round log, and the accumulator dump.
//
// Examples (long invocations wrapped for reading):
//   divsec_sweep run --preset enterprise1024 --replications 100000
//       --shard 0/8 --out s0.state            # ×8, one per process/host
//   divsec_sweep merge --out fleet s*.state
//   divsec_sweep plan --preset enterprise1024 --replications 100000
//       --shards 8 --weights fleet_merged.state --out fleet.tasks
//   divsec_sweep run --preset enterprise1024 --replications 100000
//       --tasks fleet.tasks --shard 0 --out e0.state   # ×8, elastic
//   divsec_sweep run --preset enterprise1024 --replications 100000
//       --out fleet_ref                       # the equality reference
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "attack/threat.h"
#include "core/report.h"
#include "dist/adaptive.h"
#include "dist/sweep.h"
#include "scenario/presets.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sim/executor.h"
#include "util/file.h"
#include "util/json.h"
#include "util/strict_text.h"
#include "util/version.h"

using namespace divsec;

namespace {

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: divsec_sweep <run|plan|merge|adapt|inspect> [options]\n"
      "\n"
      "divsec_sweep run [sweep options] [--shard i/K | --tasks PLAN --shard i\n"
      "                 | --replay STATE [--shard i/K]] [--out PATH]\n"
      "  --preset NAME        scenario preset or family spec (default\n"
      "                       enterprise256)\n"
      "  --family SPEC        topology family spec, e.g. brownfield or\n"
      "                       hub-spoke:nodes=512,sites=8 (families:\n"
      "                       purdue-deep, mesh-flat, hub-spoke,\n"
      "                       brownfield); sets the preset to the\n"
      "                       canonical familyv1 form\n"
      "  --family-json ARG    same, from a flat JSON object — inline if\n"
      "                       ARG starts with '{', else a file path\n"
      "  --policies a,b,c     cell arms from {monoculture,zone-stratified,\n"
      "                       random-per-node,balanced-rotation} (aliases\n"
      "                       mono/zone/random/rotation; default the\n"
      "                       three-arm policy sweep)\n"
      "  --threat SPEC        threat spec: stuxnet|duqu|flame, optionally\n"
      "                       tuned — stuxnet:scan=2,dwell=0.5,\n"
      "                       stealth=0.8,channels=usb+http\n"
      "                       (default stuxnet)\n"
      "  --seed S             master seed (default 2013)\n"
      "  --replications N     replications per cell (default 1000)\n"
      "  --block B            replications per reduction block (default %zu)\n"
      "  --superblock SB      replications per distributable superblock\n"
      "                       (multiple of the block; default %zu)\n"
      "  --bins N             survival-estimator bins, at most %zu\n"
      "                       (default 64)\n"
      "  --horizon H          measurement horizon in hours (default 2160)\n"
      "  --threads T          executor threads, at most %zu (default\n"
      "                       DIVSEC_THREADS)\n"
      "  --shard i/K          compute only shard i of K (contiguous\n"
      "                       balanced ranges) and write its state file\n"
      "  --tasks PLAN         execute the task list --shard i owns in the\n"
      "                       plan file (from `divsec_sweep plan`); the\n"
      "                       plan's fingerprint must match the sweep flags\n"
      "  --replay STATE       re-execute the per-cell achieved counts an\n"
      "                       adaptive state recorded (sweep flags come\n"
      "                       from the state, not the command line); no\n"
      "                       --shard reproduces the CSV directly, --shard\n"
      "                       i/K writes shard i's slice of the achieved\n"
      "                       task list for a later `merge`\n"
      "  --out PATH           state-file path (sharded) or artifact prefix\n"
      "  --metrics PATH       write the obs:: metrics snapshot as JSON; a\n"
      "                       sharded run writes <out>.metrics.json even\n"
      "                       without the flag (merge aggregates sidecars)\n"
      "  --trace FILE         record obs:: spans and write a Chrome\n"
      "                       trace-event JSON (load in Perfetto)\n"
      "\n"
      "divsec_sweep plan [sweep options] --shards K [--weights STATE]...\n"
      "                  [--out PATH]\n"
      "  deals the sweep's superblock tasks to K shards by LPT over the\n"
      "  per-cell costs measured in the --weights state files (shard or\n"
      "  merged; replication counts may differ — cost is per replication).\n"
      "  Without --weights all tasks cost the same (balanced deal). Writes\n"
      "  the task plan to PATH (default <preset>_<K>shards.tasks)\n"
      "\n"
      "divsec_sweep merge [--out PREFIX] [--bench-json FILE]\n"
      "                   [--metrics PATH] STATE...\n"
      "  reduces shard state files to <PREFIX>_measurements.csv,\n"
      "  <PREFIX>_summary.json and <PREFIX>_merged.state; --bench-json\n"
      "  records per-shard wall times in BENCH json format. Aggregates the\n"
      "  inputs' <STATE>.metrics.json sidecars (plus this process's own\n"
      "  codec counters) into <PREFIX>_merged.state.metrics.json, or\n"
      "  --metrics PATH\n"
      "\n"
      "divsec_sweep adapt [sweep options] [--threads T] [--out PREFIX]\n"
      "  variance-driven sweep: rounds of one superblock per unconverged\n"
      "  cell until every cell's CI half-width meets the stopping rule or\n"
      "  hits the --replications budget. Writes <PREFIX>_measurements.csv,\n"
      "  <PREFIX>_summary.json and <PREFIX>_adaptive.state\n"
      "  --precision R        relative CI half-width target (default 0.05;\n"
      "                       0 disables the relative criterion)\n"
      "  --abs-floor A        absolute half-width floor in ratio units\n"
      "                       (scaled by the horizon for time indicators;\n"
      "                       default 0 = off) — a near-zero-mean cell\n"
      "                       converges on this even when R*|mean| ~ 0\n"
      "  --confidence C       CI confidence level (default 0.95)\n"
      "  --min N              replications before a cell may stop\n"
      "                       (default: one superblock)\n"
      "  --max N              per-cell cap (default: --replications)\n"
      "  --round N            replications added per round per cell\n"
      "                       (default: one superblock)\n"
      "  --metrics PATH       write the obs:: metrics snapshot as JSON\n"
      "  --trace FILE         record obs:: spans (adapt.round/merge)\n"
      "                       and write Chrome trace-event JSON\n"
      "  (a per-round convergence line always goes to stderr; silence it\n"
      "  with DIVSEC_PROGRESS=0)\n"
      "\n"
      "divsec_sweep inspect [STATE] [--metrics FILE]\n"
      "  prints the JSON header, the per-section byte breakdown with the\n"
      "  compression ratio vs. the fixed-width equivalent, per-cell\n"
      "  summaries, the adaptive round log, and the accumulator dump.\n"
      "  --metrics FILE (or an existing <STATE>.metrics.json sidecar)\n"
      "  pretty-prints the metrics catalog: counters, gauges, and\n"
      "  histogram count/mean/p50/p99\n"
      "\n"
      "divsec_sweep --help | --version\n",
      sim::kDefaultReductionBlock, sim::kDefaultSuperblockReps,
      stats::kMaxSurvivalBins, sim::kMaxThreads);
}

[[noreturn]] void die_unknown(const std::string& flag) {
  std::fprintf(stderr, "divsec_sweep: unknown flag: %s\n", flag.c_str());
  usage(stderr);
  std::exit(2);
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "divsec_sweep: %s\n", message.c_str());
  std::exit(2);
}

scenario::VariantPolicy parse_policy(const std::string& name) {
  if (name == "monoculture" || name == "mono")
    return scenario::VariantPolicy::kMonoculture;
  if (name == "zone-stratified" || name == "zone")
    return scenario::VariantPolicy::kZoneStratified;
  if (name == "random-per-node" || name == "random")
    return scenario::VariantPolicy::kRandomPerNode;
  if (name == "balanced-rotation" || name == "rotation")
    return scenario::VariantPolicy::kBalancedRotation;
  die("unknown policy: " + name +
      " (policies: monoculture, zone-stratified, random-per-node, "
      "balanced-rotation)");
}

/// A count or a finite real in util/strict_text.h's grammar, or die
/// naming the flag.
std::uint64_t u64_flag(const std::string& flag, std::string_view value) {
  if (const auto v = util::to_u64(value)) return *v;
  die("bad number for " + flag + ": " + std::string(value));
}

/// A count up to `max`, checked here so nothing downstream is ever asked
/// for more: --threads (sim::kMaxThreads; 0 = the DIVSEC_THREADS default)
/// and --bins (stats::kMaxSurvivalBins).
std::size_t bounded_flag(const std::string& flag, std::string_view value,
                         std::size_t max) {
  const std::uint64_t v = u64_flag(flag, value);
  if (v > max)
    die("bad number for " + flag + ": " + std::string(value) + " (at most " +
        std::to_string(max) + ")");
  return static_cast<std::size_t>(v);
}

double f64_flag(const std::string& flag, std::string_view value) {
  if (const auto v = util::to_double(value)) return *v;
  die("bad number for " + flag + ": " + std::string(value));
}

/// "i/K" with i < K.
std::pair<std::size_t, std::size_t> parse_shard(const std::string& value) {
  const std::size_t slash = value.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 >= value.size())
    die("--shard wants i/K, e.g. 0/4; got: " + value);
  const std::uint64_t i = u64_flag("--shard", std::string_view(value).substr(0, slash));
  const std::uint64_t k = u64_flag("--shard", std::string_view(value).substr(slash + 1));
  if (k == 0 || i >= k) die("--shard wants i < K; got: " + value);
  return {static_cast<std::size_t>(i), static_cast<std::size_t>(k)};
}

/// RAII around --trace FILE: spans record between construction and the
/// command's (possibly early) return, then flush as Chrome trace-event
/// JSON. A write failure warns instead of throwing (we are unwinding).
struct TraceGuard {
  std::string path;

  explicit TraceGuard(std::string p) : path(std::move(p)) {
    if (!path.empty()) obs::trace_start();
  }
  ~TraceGuard() {
    if (path.empty()) return;
    try {
      obs::trace_stop(path);
      obs::progress_line("trace -> %s", path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "divsec_sweep: trace write failed: %s\n", e.what());
    }
  }
  TraceGuard(const TraceGuard&) = delete;
  TraceGuard& operator=(const TraceGuard&) = delete;
};

/// Flush the process's metrics snapshot as a sidecar. Out-of-band by
/// construction: written after the CSV/state artifacts, read by nothing
/// in the measurement pipeline.
void write_metrics_sidecar(const std::string& path) {
  obs::write_metrics_file(path, obs::snapshot());
  obs::progress_line("metrics -> %s", path.c_str());
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f) std::fclose(f);
  return f != nullptr;
}

std::string read_text_file(const std::string& path) {
  try {
    return util::read_file(path);
  } catch (const std::exception& e) {
    die(e.what());
  }
}

/// Canonicalize --preset/--threat up front so a typo dies with the
/// registry listing and exit code 2 (a usage error), not an unhandled
/// exception bubbling out of plan expansion as exit 1.
void resolve_spec(dist::SweepSpec& spec) {
  try {
    spec.preset = scenario::resolve_preset_name(spec.preset);
    spec.threat = attack::canonical_threat_spec(spec.threat);
  } catch (const std::exception& e) {
    die(e.what());
  }
}

struct ArgReader {
  int argc;
  char** argv;
  int i;

  [[nodiscard]] std::string value(const std::string& flag) {
    if (i + 1 >= argc) die("missing value for " + flag);
    return argv[++i];
  }
};

/// The sweep-identity flags shared by `run` and `plan`. Returns false if
/// `flag` is not a sweep flag (the caller handles its own).
bool parse_sweep_flag(ArgReader& args, const std::string& flag,
                      dist::SweepSpec& spec) {
  if (flag == "--preset") spec.preset = args.value(flag);
  else if (flag == "--family") {
    try {
      spec.preset = scenario::FamilySpec::parse(args.value(flag)).canonical();
    } catch (const std::exception& e) {
      die(e.what());
    }
  } else if (flag == "--family-json") {
    const std::string arg = args.value(flag);
    const std::string text =
        !arg.empty() && arg[0] == '{' ? arg : read_text_file(arg);
    try {
      spec.preset = scenario::FamilySpec::from_json(text).canonical();
    } catch (const std::exception& e) {
      die(e.what());
    }
  } else if (flag == "--policies") {
    spec.policies.clear();
    const std::string list = args.value(flag);
    for (const std::string_view p : util::split(list, ','))
      if (!p.empty()) spec.policies.push_back(parse_policy(std::string(p)));
  } else if (flag == "--threat") spec.threat = args.value(flag);
  else if (flag == "--seed") spec.seed = u64_flag(flag, args.value(flag));
  else if (flag == "--replications")
    spec.replications = u64_flag(flag, args.value(flag));
  else if (flag == "--block")
    spec.replication_block = u64_flag(flag, args.value(flag));
  else if (flag == "--superblock")
    spec.superblock = u64_flag(flag, args.value(flag));
  else if (flag == "--bins")
    spec.survival_bins = bounded_flag(flag, args.value(flag), stats::kMaxSurvivalBins);
  else if (flag == "--horizon") {
    const std::string value = args.value(flag);
    const double hours = f64_flag(flag, value);
    if (!(hours > 0.0)) die("bad number for " + flag + ": " + value);
    spec.horizon_hours = hours;
  }
  else return false;
  return true;
}

int cmd_run(int argc, char** argv) {
  dist::SweepSpec spec;
  bool sharded = false;
  std::string shard_value;
  std::size_t threads = 0;
  std::string out;
  std::string tasks_path;
  std::string replay_path;
  std::string metrics_path;
  std::string trace_path;

  ArgReader args{argc, argv, 2};
  for (; args.i < argc; ++args.i) {
    const std::string flag = argv[args.i];
    if (parse_sweep_flag(args, flag, spec)) continue;
    else if (flag == "--threads")
      threads = bounded_flag(flag, args.value(flag), sim::kMaxThreads);
    else if (flag == "--shard") {
      shard_value = args.value(flag);
      sharded = true;
    } else if (flag == "--tasks") tasks_path = args.value(flag);
    else if (flag == "--replay") replay_path = args.value(flag);
    else if (flag == "--out") out = args.value(flag);
    else if (flag == "--metrics") metrics_path = args.value(flag);
    else if (flag == "--trace") trace_path = args.value(flag);
    else die_unknown(flag);
  }
  resolve_spec(spec);

  const TraceGuard trace(trace_path);
  // A state-producing run always flushes its metrics next to the state
  // file (merge aggregates the sidecars); the in-process reference only
  // writes metrics when asked.
  const auto shard_metrics = [&](const std::string& state_path) {
    write_metrics_sidecar(metrics_path.empty() ? state_path + ".metrics.json"
                                               : metrics_path);
  };
  const sim::Executor executor(threads);  // 0 = DIVSEC_THREADS default
  if (!replay_path.empty()) {
    // Replay mode: the state file, not the command line, names the sweep
    // — its meta carries the flags AND the per-cell achieved counts the
    // adaptive run recorded. Re-running exactly those counts through the
    // ordinary task runner reproduces the adaptive CSV byte for byte.
    if (!tasks_path.empty()) die("--replay and --tasks are exclusive");
    const dist::ShardState recorded = dist::read_shard_state(replay_path);
    if (recorded.meta.achieved.empty())
      die("--replay wants an adaptive state (no per-cell achieved counts "
          "in " + replay_path + ")");
    const dist::SweepSpec replay_spec = dist::spec_from_meta(recorded.meta);

    if (sharded) {
      // Shard i's contiguous slice of the achieved task list (run_shard
      // cuts by list position — task ids themselves are non-contiguous
      // because each cell contributes only its prefix).
      const auto [shard, shard_count] = parse_shard(shard_value);
      if (out.empty())
        out = replay_spec.preset + "_replay_shard" + std::to_string(shard) +
              "of" + std::to_string(shard_count) + ".state";
      const dist::ShardState state =
          dist::run_shard(replay_spec, shard, shard_count, &executor);
      dist::write_shard_state(out, state);
      shard_metrics(out);
      std::printf("replay shard %zu/%zu: %zu achieved task(s) of %s in "
                  "%.1f ms -> %s\n",
                  shard, shard_count, state.tasks.size(),
                  replay_spec.preset.c_str(), state.meta.wall_ms, out.c_str());
      return 0;
    }

    if (out.empty()) out = replay_spec.preset + "_replay";
    const dist::ShardState state =
        dist::run_shard(replay_spec, 0, 1, &executor);
    const dist::MergeResult merged = dist::merge_shards({state});
    core::save_to_file(out + "_measurements.csv",
                       dist::sweep_csv(merged.meta, merged.summaries));
    core::save_to_file(out + "_summary.json",
                       dist::summary_json(merged.meta, merged.summaries));
    if (!metrics_path.empty()) write_metrics_sidecar(metrics_path);
    std::printf("replayed %zu achieved task(s) of %s in %.1f ms -> "
                "%s_{measurements.csv,summary.json}\n",
                state.tasks.size(), replay_spec.preset.c_str(),
                state.meta.wall_ms, out.c_str());
    return 0;
  }

  if (!tasks_path.empty()) {
    // Elastic mode: execute the task list shard i owns in the plan file.
    if (!sharded)
      die("run --tasks wants --shard i (which task list to execute)");
    if (shard_value.find('/') != std::string::npos)
      die("with --tasks, --shard wants a bare index i (K comes from the "
          "plan file); got: " + shard_value);
    const std::size_t shard =
        static_cast<std::size_t>(u64_flag("--shard", shard_value));
    const dist::TaskPlan plan = dist::read_task_plan(tasks_path);
    // The PR-4 fingerprint rule, reused: a task assignment is only valid
    // for the exact sweep it was planned for — running it against other
    // flags would silently mis-cover the task space.
    dist::require_fingerprint(dist::sweep_fingerprint(dist::make_meta(spec)),
                              plan.fingerprint, "task plan " + tasks_path);
    if (shard >= plan.shards.size())
      die("--shard " + std::to_string(shard) + " out of range: " +
          tasks_path + " plans " + std::to_string(plan.shards.size()) +
          " shard(s)");
    if (out.empty())
      out = spec.preset + "_shard" + std::to_string(shard) + "of" +
            std::to_string(plan.shards.size()) + ".state";
    const dist::ShardState state = dist::run_shard_tasks(
        spec, plan.shards[shard], shard, plan.shards.size(), &executor);
    dist::write_shard_state(out, state);
    shard_metrics(out);
    std::printf("shard %zu/%zu: %zu task(s) of %s (cost-weighted plan %s) "
                "in %.1f ms -> %s\n",
                shard, plan.shards.size(), state.tasks.size(),
                spec.preset.c_str(), tasks_path.c_str(), state.meta.wall_ms,
                out.c_str());
    return 0;
  }

  if (sharded) {
    const auto [shard, shard_count] = parse_shard(shard_value);
    if (out.empty())
      out = spec.preset + "_shard" + std::to_string(shard) + "of" +
            std::to_string(shard_count) + ".state";
    const dist::ShardState state =
        dist::run_shard(spec, shard, shard_count, &executor);
    const unsigned long long lo =
        state.tasks.empty() ? 0 : static_cast<unsigned long long>(state.tasks.front());
    const unsigned long long hi =
        state.tasks.empty() ? 0 : static_cast<unsigned long long>(state.tasks.back()) + 1;
    dist::write_shard_state(out, state);
    shard_metrics(out);
    std::printf("shard %zu/%zu: tasks [%llu, %llu) of %s in %.1f ms -> %s\n",
                shard, shard_count, lo, hi, spec.preset.c_str(),
                state.meta.wall_ms, out.c_str());
    return 0;
  }

  if (out.empty()) out = spec.preset;
  dist::SweepMeta meta = dist::make_meta(spec);
  meta.threads = static_cast<std::uint32_t>(executor.thread_count());
  const std::vector<core::IndicatorSummary> summaries =
      dist::run_in_process(spec, &executor);
  core::save_to_file(out + "_measurements.csv",
                     dist::sweep_csv(meta, summaries));
  core::save_to_file(out + "_summary.json",
                     dist::summary_json(meta, summaries));
  if (!metrics_path.empty()) write_metrics_sidecar(metrics_path);
  std::printf("in-process sweep of %s (%llu cells x %llu reps) -> "
              "%s_{measurements.csv,summary.json}\n",
              spec.preset.c_str(), static_cast<unsigned long long>(meta.cells),
              static_cast<unsigned long long>(meta.replications), out.c_str());
  return 0;
}

int cmd_plan(int argc, char** argv) {
  dist::SweepSpec spec;
  std::size_t shards = 0;
  std::vector<std::string> weights;
  std::string out;

  ArgReader args{argc, argv, 2};
  for (; args.i < argc; ++args.i) {
    const std::string flag = argv[args.i];
    if (parse_sweep_flag(args, flag, spec)) continue;
    else if (flag == "--shards")
      shards = u64_flag(flag, args.value(flag));
    else if (flag == "--weights") weights.push_back(args.value(flag));
    else if (flag == "--out") out = args.value(flag);
    else die_unknown(flag);
  }
  if (shards == 0) die("plan wants --shards K (K >= 1)");
  resolve_spec(spec);

  const dist::SweepMeta meta = dist::make_meta(spec);
  dist::CostModel cost;
  for (const auto& path : weights) {
    const dist::ShardState state = dist::read_shard_state(path);
    // Weights only need cost-compatibility (same cells, same dynamics):
    // seconds/rep is independent of replication counts and aggregation
    // sizes, so a cheap calibration run can weight a full-scale plan.
    dist::require_fingerprint(dist::cost_fingerprint(meta),
                              dist::cost_fingerprint(state.meta),
                              "weights file " + path);
    cost.merge(state.cost);
  }

  const sim::ShardPlan task_space = dist::sweep_shard_plan(meta);
  dist::TaskPlan plan;
  plan.fingerprint = dist::sweep_fingerprint(meta);
  plan.shards = dist::cost_weighted_assignment(task_space, cost, shards);
  if (out.empty())
    out = spec.preset + "_" + std::to_string(shards) + "shards.tasks";
  dist::write_task_plan(out, plan);

  const std::vector<double> estimate =
      dist::assignment_cost(task_space, cost, plan.shards);
  const bool weighted = cost.measured();
  std::printf("%s plan over %zu task(s) (%s costs) -> %s\n",
              weighted ? "cost-weighted LPT" : "balanced",
              static_cast<std::size_t>(task_space.task_count()),
              weighted ? "measured" : "uniform", out.c_str());
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    if (weighted)
      std::printf("  shard %zu: %4zu task(s)  ~%.2f s predicted\n", s,
                  plan.shards[s].size(), estimate[s]);
    else
      std::printf("  shard %zu: %4zu task(s)\n", s, plan.shards[s].size());
  }
  return 0;
}

int cmd_merge(int argc, char** argv) {
  std::string out = "merged";
  std::string bench_json;
  std::string metrics_path;
  std::vector<std::string> inputs;

  ArgReader args{argc, argv, 2};
  for (; args.i < argc; ++args.i) {
    const std::string flag = argv[args.i];
    if (flag == "--out") out = args.value(flag);
    else if (flag == "--bench-json") bench_json = args.value(flag);
    else if (flag == "--metrics") metrics_path = args.value(flag);
    else if (flag.size() >= 2 && flag[0] == '-' && flag[1] == '-')
      die_unknown(flag);
    else inputs.push_back(flag);
  }
  if (inputs.empty()) die("merge wants at least one state file");

  std::vector<dist::ShardState> states;
  states.reserve(inputs.size());
  for (const auto& path : inputs)
    states.push_back(dist::read_shard_state(path));

  const auto t0 = std::chrono::steady_clock::now();
  const dist::MergeResult merged = [&] {
    try {
      return dist::merge_shards(states);
    } catch (const dist::MergeError& e) {
      // The reducer names inputs by position; name the files too.
      std::string message = e.what();
      for (const std::size_t i : e.inputs)
        message += "\n  input " + std::to_string(i) + ": " + inputs[i];
      throw std::invalid_argument(message);
    }
  }();
  const double merge_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

  core::save_to_file(out + "_measurements.csv",
                     dist::sweep_csv(merged.meta, merged.summaries));
  core::save_to_file(out + "_summary.json",
                     dist::summary_json(merged.meta, merged.summaries));
  dist::write_shard_state(out + "_merged.state", dist::merged_state(merged));

  // Aggregate the shards' metrics sidecars (counters sum, gauges max)
  // plus this process's own snapshot — the codec decode/encode counters
  // of the reduction itself — into one fleet-wide catalog.
  {
    obs::Snapshot fleet;
    std::size_t sidecars = 0;
    for (const auto& path : inputs) {
      const std::string sidecar = path + ".metrics.json";
      if (!file_exists(sidecar)) continue;
      obs::merge_into(fleet, obs::read_metrics_file(sidecar));
      ++sidecars;
    }
    if (sidecars > 0 || !metrics_path.empty()) {
      obs::merge_into(fleet, obs::snapshot());
      const std::string dest = metrics_path.empty()
                                   ? out + "_merged.state.metrics.json"
                                   : metrics_path;
      obs::write_metrics_file(dest, fleet);
      obs::progress_line("aggregated %zu metrics sidecar(s) -> %s", sidecars,
                         dest.c_str());
    }
  }

  if (!bench_json.empty()) {
    // Per-shard wall times plus the reduction itself: the distributed
    // speedup record CI tracks across commits. `speedup` on the merge row
    // is sum(shard walls) / (critical path = slowest shard + merge).
    std::vector<util::BenchRecord> records;
    double total_ms = 0.0, slowest_ms = 0.0;
    for (const auto& s : states) {
      util::BenchRecord r;
      r.name = "divsec_sweep/" + s.meta.preset + "/shard" +
               std::to_string(s.meta.shard) + "of" +
               std::to_string(s.meta.shard_count);
      r.wall_ms = s.meta.wall_ms;
      r.threads = static_cast<int>(s.meta.threads);
      records.push_back(r);
      total_ms += s.meta.wall_ms;
      slowest_ms = std::max(slowest_ms, s.meta.wall_ms);
    }
    util::BenchRecord m;
    m.name = "divsec_sweep/" + merged.meta.preset + "/merge";
    m.wall_ms = merge_ms;
    m.threads = 1;
    if (slowest_ms + merge_ms > 0.0)
      m.speedup = total_ms / (slowest_ms + merge_ms);
    records.push_back(m);
    util::write_bench_json(bench_json, records);
  }

  std::size_t tasks = 0;
  for (const auto& s : states) tasks += s.partials.size();
  std::printf("merged %zu shard state(s): %zu tasks -> %llu cells in "
              "%.1f ms -> %s_{measurements.csv,summary.json,merged.state}\n",
              states.size(), tasks,
              static_cast<unsigned long long>(merged.meta.cells), merge_ms,
              out.c_str());
  return 0;
}

int cmd_adapt(int argc, char** argv) {
  dist::SweepSpec spec;
  core::AdaptiveOptions options;
  std::size_t threads = 0;
  std::string out;
  std::string metrics_path;
  std::string trace_path;

  ArgReader args{argc, argv, 2};
  for (; args.i < argc; ++args.i) {
    const std::string flag = argv[args.i];
    if (parse_sweep_flag(args, flag, spec)) continue;
    else if (flag == "--precision")
      options.relative_precision = f64_flag(flag, args.value(flag));
    else if (flag == "--abs-floor")
      options.absolute_precision = f64_flag(flag, args.value(flag));
    else if (flag == "--confidence")
      options.confidence_level = f64_flag(flag, args.value(flag));
    else if (flag == "--min")
      options.min_replications = u64_flag(flag, args.value(flag));
    else if (flag == "--max")
      options.max_replications = u64_flag(flag, args.value(flag));
    else if (flag == "--round")
      options.round_replications = u64_flag(flag, args.value(flag));
    else if (flag == "--threads")
      threads = bounded_flag(flag, args.value(flag), sim::kMaxThreads);
    else if (flag == "--out") out = args.value(flag);
    else if (flag == "--metrics") metrics_path = args.value(flag);
    else if (flag == "--trace") trace_path = args.value(flag);
    else die_unknown(flag);
  }
  resolve_spec(spec);
  if (out.empty()) out = spec.preset;

  const TraceGuard trace(trace_path);
  const sim::Executor executor(threads);
  const dist::MergeResult result =
      dist::run_adaptive(spec, options, &executor);

  core::save_to_file(out + "_measurements.csv",
                     dist::sweep_csv(result.meta, result.summaries));
  core::save_to_file(out + "_summary.json",
                     dist::summary_json(result.meta, result.summaries));
  dist::write_shard_state(out + "_adaptive.state",
                          dist::merged_state(result));
  if (!metrics_path.empty()) write_metrics_sidecar(metrics_path);

  const std::uint64_t total = std::accumulate(
      result.meta.achieved.begin(), result.meta.achieved.end(),
      std::uint64_t{0});
  const std::uint64_t budget = result.meta.cells * result.meta.replications;
  const double savings =
      total > 0 ? static_cast<double>(budget) / static_cast<double>(total)
                : 0.0;
  std::printf("adaptive sweep of %s: %zu round(s), %llu of %llu budget "
              "replication(s) (%.2fx saved) in %.1f ms "
              "-> %s_{measurements.csv,summary.json,adaptive.state}\n",
              spec.preset.c_str(), result.rounds.size(),
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(budget),
              savings, result.meta.wall_ms, out.c_str());
  for (std::size_t c = 0; c < result.meta.cells; ++c)
    std::printf("  cell %zu: %llu rep(s), stopped round %llu\n", c,
                static_cast<unsigned long long>(result.meta.achieved[c]),
                static_cast<unsigned long long>(result.cell_rounds[c]));
  return 0;
}

/// One JSON line per metric, sorted by name (sidecar order). Histograms
/// get count/sum plus the triage stats (mean, p50, p99 — log2-bucket
/// upper edges, exact within a factor of two).
void print_metrics_catalog(const std::string& metrics_path) {
  const obs::Snapshot snap = obs::read_metrics_file(metrics_path);
  std::printf("{\"metrics_file\": %s, \"counters\": %zu, \"gauges\": %zu, "
              "\"histograms\": %zu}\n",
              util::json_string(metrics_path).c_str(), snap.counters.size(),
              snap.gauges.size(), snap.histograms.size());
  for (const obs::CounterValue& c : snap.counters)
    std::printf("{\"counter\": %s, \"value\": %llu}\n",
                util::json_string(c.name).c_str(),
                static_cast<unsigned long long>(c.value));
  for (const obs::GaugeValue& g : snap.gauges)
    std::printf("{\"gauge\": %s, \"value\": %llu}\n",
                util::json_string(g.name).c_str(),
                static_cast<unsigned long long>(g.value));
  for (const obs::HistogramValue& h : snap.histograms)
    std::printf("{\"histogram\": %s, \"count\": %llu, \"sum\": %llu, "
                "\"mean\": %s, \"p50\": %s, \"p99\": %s}\n",
                util::json_string(h.name).c_str(),
                static_cast<unsigned long long>(h.count),
                static_cast<unsigned long long>(h.sum),
                util::json_number_exact(h.mean()).c_str(),
                util::json_number_exact(h.quantile(0.5)).c_str(),
                util::json_number_exact(h.quantile(0.99)).c_str());
}

int cmd_inspect(int argc, char** argv) {
  std::string path;
  std::string metrics_path;
  ArgReader args{argc, argv, 2};
  for (; args.i < argc; ++args.i) {
    const std::string flag = argv[args.i];
    if (flag == "--metrics") metrics_path = args.value(flag);
    else if (flag.size() >= 2 && flag[0] == '-' && flag[1] == '-')
      die_unknown(flag);
    else if (!path.empty()) die("inspect wants at most one state file");
    else path = flag;
  }
  if (path.empty() && metrics_path.empty())
    die("inspect wants a state file and/or --metrics FILE");
  // A state file's own sidecar rides along without being asked for.
  if (metrics_path.empty() && file_exists(path + ".metrics.json"))
    metrics_path = path + ".metrics.json";
  if (path.empty()) {
    print_metrics_catalog(metrics_path);
    return 0;
  }

  const std::string bytes = read_text_file(path);
  const dist::ShardState state = dist::decode_shard_state(bytes);
  std::printf("%s\n", dist::meta_json(state.meta).c_str());

  // Where the bytes went, and what the v4 packing bought over the
  // fixed-width encoding of the same content — the CLI view of the
  // codec-size contract the bench_e5 codec phase gates in CI.
  const dist::StateSectionSizes sizes = dist::state_section_sizes(bytes);
  const std::size_t equivalent = dist::uncompressed_equivalent_bytes(state);
  std::printf(
      "{\"sections\": {\"header\": %zu, \"meta\": %zu, \"tasks\": %zu, "
      "\"accumulators\": %zu, \"cost\": %zu, \"rounds\": %zu, "
      "\"checksum\": %zu}, \"total_bytes\": %zu, "
      "\"uncompressed_equivalent_bytes\": %zu, "
      "\"compression_ratio\": %.2f}\n",
      sizes.header, sizes.meta, sizes.tasks, sizes.accumulators, sizes.cost,
      sizes.rounds, sizes.checksum, sizes.total(), equivalent,
      static_cast<double>(equivalent) / static_cast<double>(sizes.total()));

  // One line per cell: the policy arm, the achieved replication count an
  // adaptive run recorded (and the round it stopped in), and the measured
  // cost. Cells with nothing to report (fixed-budget state, no cost
  // measured) are skipped.
  const std::vector<std::string> names =
      dist::cell_names(dist::spec_from_meta(state.meta));
  const bool adaptive = !state.meta.achieved.empty();
  for (std::size_t c = 0; c < state.meta.cells; ++c) {
    const bool costed =
        c < state.cost.cells.size() && state.cost.cells[c].replications > 0;
    if (!adaptive && !costed) continue;
    std::string line = "{\"cell\": " + std::to_string(c) + ", \"policy\": \"" +
                       names[c] + "\"";
    if (adaptive) {
      line += ", \"achieved\": " +
              std::to_string(static_cast<unsigned long long>(
                  state.meta.achieved[c]));
      if (c < state.cell_rounds.size())
        line += ", \"termination_round\": " +
                std::to_string(static_cast<unsigned long long>(
                    state.cell_rounds[c]));
    }
    if (costed) {
      const dist::CellCost& cell = state.cost.cells[c];
      line += ", \"cost_replications\": " +
              std::to_string(static_cast<unsigned long long>(
                  cell.replications)) +
              ", \"cost_seconds\": " + util::json_number_exact(cell.seconds) +
              ", \"sec_per_rep\": " +
              util::json_number_exact(state.cost.sec_per_rep(c));
    }
    line += "}";
    std::printf("%s\n", line.c_str());
  }

  for (const core::RoundLog& r : state.rounds)
    std::printf("{\"round\": %llu, \"active_cells\": %llu, \"tasks\": %llu, "
                "\"replications\": %llu, \"wall_ms\": %s, \"merge_ms\": %s}\n",
                static_cast<unsigned long long>(r.round),
                static_cast<unsigned long long>(r.active_cells),
                static_cast<unsigned long long>(r.tasks),
                static_cast<unsigned long long>(r.replications),
                util::json_number_exact(r.wall_ms).c_str(),
                util::json_number_exact(r.merge_ms).c_str());

  for (std::size_t t = 0; t < state.partials.size(); ++t)
    std::printf("{\"task\": %llu, \"state\": %s}\n",
                static_cast<unsigned long long>(state.tasks[t]),
                dist::accumulator_json(state.partials[t]).c_str());

  if (!metrics_path.empty()) print_metrics_catalog(metrics_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    usage(stdout);
    return 0;
  }
  if (cmd == "--version") {
    std::printf("divsec_sweep %s (state format v%u)\n", util::kVersion,
                dist::kStateFormatVersion);
    return 0;
  }
  try {
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "plan") return cmd_plan(argc, argv);
    if (cmd == "merge") return cmd_merge(argc, argv);
    if (cmd == "adapt") return cmd_adapt(argc, argv);
    if (cmd == "inspect") return cmd_inspect(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "divsec_sweep: error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "divsec_sweep: unknown command: %s\n", cmd.c_str());
  usage(stderr);
  return 2;
}
