// E4 — indicator (ii), Time-To-Security-Failure (Madan et al., DSN'02):
// time from attack start to the perceived attack manifestation. Sweeps
// diversity degree and contrasts spoofing-capable Stuxnet against a
// spoof-less variant: monitoring-signal spoofing is what stretches the
// undetected window ("remain undetected for many months").
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "core/measurement.h"
#include "core/optimizer.h"
#include "stats/descriptive.h"

namespace {

using namespace divsec;

struct Setup {
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  core::SystemDescription desc = core::make_scope_description(cat);
  core::MeasurementOptions mo;
  Setup() {
    mo.engine = core::Engine::kStagedSan;
    mo.replications = 2000;
    mo.seed = 41;
  }
};

void print_diversity_sweep() {
  Setup s;
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  bench::section("E4a: Time-To-Security-Failure vs diversity degree");
  bench::row({"k diversified", "E[TTSF] h", "median h", "undetected",
              "P[success]"},
             15);
  for (std::size_t k = 0; k <= 5; ++k) {
    stats::Rng rng(200 + k);
    const core::Configuration c = core::place_resilient_components(
        s.desc, k, core::PlacementStrategy::kStrategic, stuxnet, s.mo, rng);
    std::vector<double> ttsf;
    const core::ScenarioSweepPlan plan{{{s.desc.instantiate(c), s.mo.seed}}};
    const auto summary =
        core::MeasurementEngine(s.cat, stuxnet, s.mo)
            .measure_scenarios(plan, [&ttsf](std::size_t,
                                             std::span<const core::IndicatorSample> got) {
              for (const auto& smp : got) ttsf.push_back(smp.ttsf);
            })
            .front();
    bench::row({bench::fmt_int(static_cast<long long>(k)),
                bench::fmt(summary.ttsf.mean(), 1),
                bench::fmt(stats::quantile(ttsf, 0.5), 1),
                bench::fmt_int(static_cast<long long>(summary.ttsf_censored)),
                bench::fmt(summary.attack_success_probability())},
               15);
  }
  std::printf(
      "\nShape check: diversity makes the attacker burn failed attempts, so\n"
      "the system *perceives* the attack earlier (TTSF drops) while TTA\n"
      "rises — diversity helps on both indicators.\n");
}

void print_spoofing_sweep() {
  Setup s;
  bench::section("E4b: TTSF vs monitoring-spoofing effectiveness (monoculture)");
  bench::row({"spoof", "E[TTSF] h", "undetected", "P[success]"}, 15);
  for (double spoof : {0.0, 0.5, 0.9, 0.99}) {
    attack::ThreatProfile p = attack::ThreatProfile::stuxnet();
    p.spoof_effectiveness = spoof;
    const auto summary = core::measure_indicators(
        s.desc, s.desc.baseline_configuration(), p, s.mo);
    bench::row({bench::fmt(spoof, 2), bench::fmt(summary.ttsf.mean(), 1),
                bench::fmt_int(static_cast<long long>(summary.ttsf_censored)),
                bench::fmt(summary.attack_success_probability())},
               15);
  }
  std::printf(
      "\nShape check: better spoofing -> later detection -> higher success.\n");
}

void BM_MeasureTtsf(benchmark::State& state) {
  Setup s;
  s.mo.replications = 500;
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  for (auto _ : state) {
    auto r = core::measure_indicators(s.desc, s.desc.baseline_configuration(),
                                      stuxnet, s.mo);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MeasureTtsf)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_diversity_sweep();
  print_spoofing_sweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
