// divsec_perfbench — one workload of the divsec benchmark, in one process.
//
//   divsec_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--trace-out FILE]
//
// --trace 0 (end to end): after one untimed warm-up sweep at --seed, times
// whole sweeps on one 4-thread executor for --seconds — full sweeps
// (wall_s) interleaved with sweeps at one replication per cell (setup_s)
// — and prints the end-to-end metrics. The variant catalog a seed draws
// changes how much a sweep simulates, so a run sweeps a fixed set of
// seeds — --seed, then its SplitMix64 chain — round-robin until --seconds
// are up, takes each seed's median and reports their mean. The set
// depends on --seed and the workload only, so two builds run at the same
// --seed time the same inputs however many sweeps fit. A host probe
// (host_probe.h) runs before every full sweep, and every reported time is
// scaled to the probe's reference host.
// --trace 1: one end-to-end sweep at --seed (utilization, exact counts)
// plus the traced per-layer run (traced_run.h); prints the per-layer
// metrics and writes the spans to --trace-out.
//
// Checks: a full sweep at the default seed must hit the pinned digest;
// the traced 1-thread result must equal the 4-thread one. Every sweep
// prints a "counts KIND SEED DIGEST {...}" line with its CSV digest and
// exact counts, and run.py requires each to equal the first one recorded
// for that (workload, kind, seed) — within the run (the warm-up sweep
// repeats --seed) and across runs. Any failed check or exception counts
// as a failed sweep and the exit code is 1. The last stdout line is the
// result JSON.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "counts.h"
#include "host_probe.h"
#include "dist/fnv.h"
#include "stats/rng.h"
#include "traced_run.h"
#include "util/json.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using divsec::util::json_number_exact;
using divsec::util::json_string;

constexpr std::size_t kThreads = 4;
/// A run gives up once this many sweeps have failed.
constexpr std::uint64_t kMaxFailures = 6;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = std::stoi(value);
    else if (flag == "--trace-out") a.trace_out = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace is 0 or 1");
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Lower quartile (nearest rank) of a non-empty sample.
double lower_quartile(std::vector<double> v) {
  const auto q = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 4);
  std::nth_element(v.begin(), q, v.end());
  return *q;
}

/// The mean over seeds of each seed's median.
double mean_of_medians(const std::vector<std::vector<double>>& per_seed) {
  double sum = 0.0;
  for (const auto& v : per_seed) sum += median(v);
  return sum / static_cast<double>(per_seed.size());
}

/// This process's resident high-water mark. VmHWM, not getrusage: Linux
/// carries ru_maxrss across execve, so a child of a large parent would
/// report the parent's footprint as its own floor.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f))
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// A run's seed set: the run seed, then its SplitMix64 chain.
std::vector<std::uint64_t> seed_set(std::uint64_t seed, std::size_t n) {
  std::vector<std::uint64_t> out{seed};
  std::uint64_t state = seed;
  while (out.size() < n) out.push_back(divsec::stats::splitmix64(state));
  return out;
}

using CountMap = std::map<std::string, std::uint64_t>;

/// Result checking and the run's tallies.
class Checker {
 public:
  explicit Checker(const std::string& workload) : golden_(golden_digest(workload)) {}

  /// Check one sweep: a full sweep at the default seed must hit the
  /// pinned digest. Prints the sweep's counts line for run.py's ledger.
  void sweep(const std::string& kind, std::uint64_t seed, const std::string& csv,
             const CountMap& counts) {
    ++attempted_;
    const std::uint64_t digest = divsec::dist::fnv1a(csv);
    std::string json = "{";
    for (const auto& [name, v] : counts)
      json += (json.size() > 1 ? ", " : "") + json_string(name) + ": " + std::to_string(v);
    std::printf("counts %s %llu %s %s}\n", kind.c_str(),
                static_cast<unsigned long long>(seed), hex(digest).c_str(), json.c_str());
    if (kind == "sweep" && seed == kDefaultSeed && golden_ != 0 && digest != golden_)
      error(kind + " at seed " + std::to_string(seed) + ": CSV digest " + hex(digest) +
                " != pinned " + hex(golden_),
            false);
  }

  /// Require two results to be the same bytes (counts as one attempt).
  void same(const std::string& what, const std::string& a, const std::string& b) {
    ++attempted_;
    if (a != b) error(what, false);
  }

  /// Record a failure; `attempt` when it is an attempt of its own.
  void error(const std::string& what, bool attempt = true) {
    if (attempt) ++attempted_;
    ++failed_;
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  static std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
    return buf;
  }

  std::uint64_t golden_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The exact counts of one end-to-end sweep.
CountMap exact_counts(const Workload& w, const Counts& d) {
  return {
      {"campaign.runs", d.runs},
      {"campaign.events", d.events},
      {"campaign.rng_words", d.rng_words},
      {"net.reach_builds", d.reach_builds},
      {"core.contexts_built", d.contexts_built},
      {"sim.tasks", divsec::dist::sweep_shard_plan(divsec::dist::make_meta(w.spec))
                        .task_count()},
  };
}

/// Wake every worker once so idle time accrued so far is booked now
/// (workers book a wait when it ends).
void flush_idle(const divsec::sim::Executor& exec) {
  exec.parallel_for(0, exec.thread_count(), [](std::size_t) {});
}

struct Measured {
  SweepResult result;
  Counts delta;
};

Measured measured_sweep(const Workload& w, const divsec::sim::Executor& exec) {
  flush_idle(exec);
  const Counts before = Counts::read();
  Measured m{run_sweep(w, exec), {}};
  flush_idle(exec);
  m.delta = Counts::read() - before;
  return m;
}

using Metrics = std::map<std::string, std::pair<double, std::string>>;

Metrics end_to_end(const Workload& base, const Args& args,
                   const divsec::sim::Executor& exec, Checker& check) {
  const std::vector<std::uint64_t> seeds =
      seed_set(args.seed, std::max(base.seeds, base.setup_seeds));
  std::vector<std::vector<double>> wall(base.seeds), setup(base.setup_seeds);
  HostProbe probe(kThreads);
  std::vector<double> probes;
  const auto full = [&](std::uint64_t seed) {
    const Workload w = make_workload(args.workload, seed);
    const Measured m = measured_sweep(w, exec);
    check.sweep("sweep", seed, m.result.csv, exact_counts(w, m.delta));
    return m.result.wall_s;
  };
  // Warm-up, untimed: the first seed's sweep, which the timed loop
  // repeats, so the ledger also checks determinism within the run.
  try {
    (void)full(args.seed);
  } catch (const std::exception& e) {
    check.error(std::string("warm-up sweep threw: ") + e.what());
  }
  // Full sweeps cycle through `seeds` and setup sweeps through the first
  // `setup_seeds` of them. Both sets are swept once whatever --seconds
  // says; after that setup sweeps get about `setup_share` of the run, so
  // both kinds come from the same stretch of machine time.
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double>(args.seconds);
  std::size_t full_n = 0, setup_n = 0;
  double setup_spent = 0.0;
  while (full_n < base.seeds || setup_n < base.setup_seeds ||
         std::chrono::steady_clock::now() < deadline) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    const bool setup_due = setup_spent < base.setup_share * elapsed;
    const bool setups_done = setup_n >= base.setup_seeds;
    const bool setup_turn =
        full_n >= base.seeds ? !setups_done || setup_due : !setups_done && setup_due;
    const std::size_t slot = setup_turn ? setup_n++ % base.setup_seeds
                                        : full_n++ % base.seeds;
    if (!setup_turn) probes.push_back(probe.seconds());
    try {
      if (setup_turn) {
        const Workload one = with_budget(make_workload(args.workload, seeds[slot]), 1);
        const Measured m = measured_sweep(one, exec);
        check.sweep("setup", seeds[slot], m.result.csv, exact_counts(one, m.delta));
        setup[slot].push_back(m.result.wall_s);
        setup_spent += m.result.wall_s;
      } else {
        wall[slot].push_back(full(seeds[slot]));
      }
    } catch (const std::exception& e) {
      check.error(std::string(setup_turn ? "setup" : "full") + " sweep threw: " + e.what());
      if (check.failed() >= kMaxFailures) break;
    }
  }
  Metrics out;
  const auto has_all = [](const std::vector<std::vector<double>>& v) {
    return std::none_of(v.begin(), v.end(), [](const auto& s) { return s.empty(); });
  };
  if (!has_all(wall) || !has_all(setup)) return out;
  // Times are reported in reference-host seconds: scaled by how much
  // slower than its reference time the host probe ran during this run.
  const double host = lower_quartile(probes);
  const double scale = kProbeReferenceS / host;
  const double raw_wall = mean_of_medians(wall), raw_setup = mean_of_medians(setup);
  const double wall_s = raw_wall * scale, setup_s = raw_setup * scale;
  out["wall_s"] = {wall_s, "s"};
  out["setup_s"] = {setup_s, "s"};
  // Replications per second of the part of the sweep that scales with
  // the budget.
  const double reps =
      static_cast<double>(base.spec.replications * base.spec.policies.size());
  out["reps_per_s"] = {reps / (wall_s - setup_s), "1/s"};
  // The probe's tables stay resident all run, so they add exactly their
  // size to the high-water mark.
  out["peak_rss_mb"] = {peak_rss_mb() - static_cast<double>(probe.table_bytes()) / 1048576.0,
                        "MB"};
  std::printf("host: probe lower quartile %.6f s over %zu probes (reference %.6f s); "
              "unscaled wall_s %.6f, setup_s %.6f\n",
              host, probes.size(), kProbeReferenceS, raw_wall, raw_setup);
  const auto show = [](const char* name, const std::vector<std::vector<double>>& v,
                       std::size_t sweeps) {
    std::printf("sweeps: %s over %zu seeds, %zu sweeps; per-seed medians", name, v.size(),
                sweeps);
    for (const auto& per_seed : v) std::printf(" %.4f", median(per_seed));
    std::printf("\n");
  };
  show("setup_s", setup, setup_n);
  show("wall_s", wall, full_n);
  return out;
}

const char* kUnits[][2] = {
    {"divers.catalog_ms", "ms"},         {"scenario.plan_ms", "ms"},
    {"scenario.plan_us_per_cell", "us"}, {"net.reach_ms", "ms"},
    {"net.reach_builds", "count"},       {"attack.tables_us_per_cell", "us"},
    {"attack.kernel_ns_p50", "ns"},      {"attack.kernel_ns_p99", "ns"},
    {"attack.kernel_calls", "count"},    {"attack.ns_per_event", "ns"},
    {"attack.events_per_rep", "count"},  {"attack.rng_words_per_event", "count"},
    {"attack.scan_accept_ratio", "ratio"},
    {"core.fold_ns_per_rep", "ns"},      {"core.merge_us_per_partial", "us"},
    {"core.summarize_us_per_cell", "us"},
    {"core.engine_residual_ns_per_rep", "ns"},
    {"core.contexts_built", "count"},    {"sim.tasks", "count"},
    {"sim.utilization", "ratio"},        {"sim.parallel_efficiency", "ratio"},
    {"dist.encode_ms", "ms"},            {"dist.decode_ms", "ms"},
    {"dist.encode_bytes_per_ms", "B/ms"}, {"dist.decode_bytes_per_ms", "B/ms"},
    {"dist.merge_ms", "ms"},             {"dist.state_bytes", "bytes"},
    {"report.csv_ms", "ms"},             {"report.csv_bytes", "bytes"},
    {"traced.wall_s", "s"},              {"traced.unattributed_share", "ratio"},
};

void print_ledger(const std::string& workload, const SpanLog& log) {
  const auto layers = log.by_layer();
  const auto names = log.by_name();
  const double wall = static_cast<double>(names.at("traced").total_ns);
  std::printf("\nper-layer ledger (%s, traced run, 1 thread)\n", workload.c_str());
  std::printf("  %-22s %10s %12s %8s\n", "layer / span", "calls", "self_ms", "share");
  for (const auto& [layer, row] : layers) {
    std::printf("  %-22s %10llu %12.3f %7.2f%%\n", layer.c_str(),
                static_cast<unsigned long long>(row.calls),
                static_cast<double>(row.self_ns) / 1e6,
                100.0 * static_cast<double>(row.self_ns) / wall);
    for (const auto& [name, r] : names)
      if (name.rfind(layer + ".", 0) == 0)
        std::printf("    %-20s %10llu %12.3f %7.2f%%\n", name.c_str(),
                    static_cast<unsigned long long>(r.calls),
                    static_cast<double>(r.self_ns) / 1e6,
                    100.0 * static_cast<double>(r.self_ns) / wall);
  }
  const auto& root = names.at("traced");
  std::printf("  %-22s %10s %12.3f %7.2f%%\n", "(unattributed)", "",
              static_cast<double>(root.self_ns) / 1e6,
              100.0 * static_cast<double>(root.self_ns) / wall);
}

Metrics per_layer(const Workload& w, const Args& args,
                  const divsec::sim::Executor& exec, Checker& check) {
  Metrics out;
  const Measured e2e = measured_sweep(w, exec);
  check.sweep("sweep", args.seed, e2e.result.csv, exact_counts(w, e2e.delta));
  TracedRun traced = run_traced(w);
  check.same("traced 1-thread result differs from the 4-thread end-to-end result",
             traced.csv, e2e.result.csv);
  if (!args.trace_out.empty()) {
    const std::string body = traced.log.chrome_json();
    std::FILE* f = std::fopen(args.trace_out.c_str(), "wb");
    bool written = f != nullptr;
    if (f) {
      written = std::fwrite(body.data(), 1, body.size(), f) == body.size();
      written = std::fclose(f) == 0 && written;
    }
    if (!written) check.error("cannot write trace file " + args.trace_out);
  }

  std::map<std::string, double> m = std::move(traced.metrics);
  const Counts& d = e2e.delta;
  const double wall = e2e.result.wall_s;
  const auto per = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  m["net.reach_builds"] = static_cast<double>(d.reach_builds);
  m["core.contexts_built"] = static_cast<double>(d.contexts_built);
  m["attack.events_per_rep"] = per(static_cast<double>(d.events), static_cast<double>(d.runs));
  m["attack.rng_words_per_event"] =
      per(static_cast<double>(d.rng_words), static_cast<double>(d.events));
  m["attack.scan_accept_ratio"] =
      per(static_cast<double>(d.scan_accepted), static_cast<double>(d.scan_candidates));
  m["sim.tasks"] = static_cast<double>(
      divsec::dist::sweep_shard_plan(divsec::dist::make_meta(w.spec)).task_count());
  m["sim.utilization"] =
      1.0 - static_cast<double>(d.idle_ns) /
                (static_cast<double>(exec.thread_count()) * wall * 1e9);
  m["sim.parallel_efficiency"] =
      traced.serial_sweep_s / (static_cast<double>(exec.thread_count()) * wall);

  for (const auto& [name, unit] : kUnits) out[name] = {m.at(name), unit};
  print_ledger(w.name, traced.log);
  std::printf("walls: traced run %.4f s (1-thread sweep %.4f s) vs end-to-end "
              "4-thread sweep %.4f s\n",
              m["traced.wall_s"], traced.serial_sweep_s, wall);
  return out;
}

std::string metrics_json(const Metrics& metrics) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    s += (first ? "" : ", ") + json_string(name) + ": {\"value\": " +
         json_number_exact(vu.first) + ", \"unit\": " + json_string(vu.second) + "}";
    first = false;
  }
  return s + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  Workload w;
  try {
    args = parse_args(argc, argv);
    w = make_workload(args.workload, args.seed);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "divsec_perfbench: %s\n", e.what());
    return 2;
  }
  const divsec::sim::Executor exec(kThreads);
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"nproc\": %u, "
      "\"executor_threads\": %zu, \"compiler\": %s, \"build_type\": %s, "
      "\"divsec_obs\": %d}\n",
      json_string(w.name).c_str(), static_cast<unsigned long long>(args.seed),
      std::thread::hardware_concurrency(), exec.thread_count(),
      json_string(__VERSION__).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      DIVSEC_OBS);

  Checker check(w.name);
  Metrics metrics;
  try {
    metrics = args.trace ? per_layer(w, args, exec, check) : end_to_end(w, args, exec, check);
  } catch (const std::exception& e) {
    check.error(std::string("run threw: ") + e.what());
  }
  const bool correct = check.failed() == 0 && !metrics.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(check.attempted()),
              static_cast<unsigned long long>(check.failed()),
              metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}
