// E3 — indicator (i), Time-To-Attack: distribution of TTA as the number
// of strategically diversified component kinds grows 0..5. The paper's
// expected shape: TTA grows (roughly multiplicatively) with diversity
// degree, i.e. diversity "raises the effort it takes to conduct a
// successful attack ... in terms of attack resources and time".
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/bench_util.h"
#include "core/measurement.h"
#include "core/optimizer.h"
#include "stats/descriptive.h"
#include "stats/survival.h"

namespace {

using namespace divsec;

struct Setup {
  divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  core::SystemDescription desc = core::make_scope_description(cat);
  attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  core::MeasurementOptions mo;
  Setup() {
    mo.engine = core::Engine::kStagedSan;
    mo.replications = 2000;
    mo.seed = 31;
  }
};

void print_table() {
  Setup s;
  bench::section("E3: Time-To-Attack vs diversity degree (strategic upgrades)");
  bench::row({"k diversified", "P[success]", "E[TTA] h", "median h", "p95 h",
              "censored", "E[TTA]/base"},
             15);
  double base_mean = 0.0;
  for (std::size_t k = 0; k <= 5; ++k) {
    stats::Rng rng(100 + k);
    const core::Configuration c = core::place_resilient_components(
        s.desc, k, core::PlacementStrategy::kStrategic, s.stuxnet, s.mo, rng);
    std::vector<double> tta;
    const core::ScenarioSweepPlan plan{{{s.desc.instantiate(c), s.mo.seed}}};
    const auto summary =
        core::MeasurementEngine(s.cat, s.stuxnet, s.mo)
            .measure_scenarios(plan, [&tta](std::size_t,
                                            std::span<const core::IndicatorSample> got) {
              for (const auto& smp : got) tta.push_back(smp.tta);
            })
            .front();
    const auto q = [&tta](double p) { return stats::quantile(tta, p); };
    if (k == 0) base_mean = summary.tta.mean();
    bench::row({bench::fmt_int(static_cast<long long>(k)),
                bench::fmt(summary.attack_success_probability()),
                bench::fmt(summary.tta.mean(), 1), bench::fmt(q(0.5), 1),
                bench::fmt(q(0.95), 1),
                bench::fmt_int(static_cast<long long>(summary.tta_censored)),
                bench::fmt(summary.tta.mean() / base_mean, 2)},
               15);
  }
  std::printf(
      "\nShape check: E[TTA] (censored at the 2160 h horizon) rises\n"
      "monotonically with diversity degree; success probability falls.\n");
}

/// Censoring-correct view of the same sweep: Kaplan-Meier survival of the
/// "system not yet impaired" state.
void print_km_table() {
  Setup s;
  bench::section("E3b: Kaplan-Meier view (censoring-correct TTA summary)");
  bench::row({"k diversified", "KM median h", "S(720 h)", "S(2160 h)",
              "RMST(2160) h"},
             16);
  for (std::size_t k = 0; k <= 3; ++k) {
    stats::Rng rng(100 + k);
    const core::Configuration c = core::place_resilient_components(
        s.desc, k, core::PlacementStrategy::kStrategic, s.stuxnet, s.mo, rng);
    std::vector<stats::SurvivalObservation> obs;
    const core::ScenarioSweepPlan plan{{{s.desc.instantiate(c), s.mo.seed}}};
    (void)core::MeasurementEngine(s.cat, s.stuxnet, s.mo)
        .measure_scenarios(plan, [&obs](std::size_t,
                                        std::span<const core::IndicatorSample> got) {
          for (const auto& smp : got) obs.push_back({smp.tta, !smp.tta_censored});
        });
    const stats::KaplanMeier km(std::move(obs));
    const auto median = km.median();
    bench::row({bench::fmt_int(static_cast<long long>(k)),
                median ? bench::fmt(*median, 1) : ">horizon",
                bench::fmt(km.survival_at(720.0)),
                bench::fmt(km.survival_at(2160.0)),
                bench::fmt(km.restricted_mean(2160.0), 1)},
               16);
  }
  std::printf(
      "\nReading: S(t) is the probability the plant is still unimpaired at\n"
      "time t; diversity pushes the whole survival curve up. The restricted\n"
      "mean survival time (RMST) is the unbiased horizon-limited E[TTA].\n");
}

void BM_MeasureTta(benchmark::State& state) {
  Setup s;
  s.mo.replications = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto r = core::measure_indicators(s.desc, s.desc.baseline_configuration(),
                                      s.stuxnet, s.mo);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MeasureTta)->Arg(100)->Arg(1000)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_table();
  print_km_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
