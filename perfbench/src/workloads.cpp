#include "workloads.h"

#include <chrono>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace dist = divsec::dist;

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.spec.seed = seed;
  if (name == "scope_fixed") {
    w.spec.preset = "scope_cooling";
    w.spec.replications = 131072;
    w.seeds = 32;
    w.setup_seeds = 32;
    w.setup_share = 0.02;
    w.kernel_samples = 4096;
    w.capture_replications = 4096;
    w.probe_cells = 3;
  } else if (name == "fleet16k_fixed") {
    w.spec.preset = "enterprise16384";
    w.spec.replications = 65536;
    w.seeds = 6;
    w.setup_seeds = 6;
    w.setup_share = 0.3;
    w.kernel_samples = 1024;
    w.capture_replications = 1024;
    w.probe_cells = 3;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Workload with_budget(const Workload& w, std::size_t replications) {
  Workload out = w;
  out.spec.replications = replications;
  return out;
}

std::uint64_t golden_digest(const std::string& name) {
  // FNV-1a of sweep_csv at seed 2013 (Release, gcc 12, x86-64). A change
  // to draw order or to the model must update these on purpose.
  static const std::map<std::string, std::uint64_t> pinned = {
      {"scope_fixed", 0x2d2d40979385c0dbULL},
      {"fleet16k_fixed", 0xf0f1b20a55b3bd84ULL},
  };
  const auto it = pinned.find(name);
  return it == pinned.end() ? 0 : it->second;
}

SweepResult run_sweep(const Workload& w, const divsec::sim::Executor& exec) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  const auto summaries = dist::run_in_process(w.spec, &exec);
  SweepResult r{dist::sweep_csv(dist::make_meta(w.spec), summaries), 0.0};
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return r;
}

}  // namespace perfbench
