// E2 — Fig. 1 of the paper as an executable artifact: the full three-step
// pipeline (Attack Modeling -> DoE & Measurements -> Diversity
// Assessment) on the SCoPE cooling system, printing each step's output
// and timing each step as a benchmark.
#include <benchmark/benchmark.h>

#include <chrono>

#include "attack/attack_tree.h"
#include "attack/bayes.h"
#include "bench/bench_util.h"
#include "core/measurement.h"
#include "core/pipeline.h"
#include "san/analysis.h"
#include "sim/executor.h"

namespace {

using namespace divsec;

const divers::VariantCatalog& catalog() {
  static const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  return cat;
}

core::PipelineOptions options() {
  core::PipelineOptions po;
  po.measurement.engine = core::Engine::kStagedSan;
  po.measurement.replications = 300;
  po.measurement.seed = 2013;
  return po;
}

void print_pipeline_run() {
  const core::SystemDescription desc = core::make_scope_description(catalog());
  const core::Pipeline pipeline(desc, attack::ThreatProfile::stuxnet(), options());

  bench::section("E2 step 1: Attack Modeling (monoculture configuration)");
  const auto model = pipeline.attack_model(desc.baseline_configuration());
  bench::row({"stage", "attempt/h", "P[success]", "detect/h", "E[hours]"});
  for (std::size_t i = 0; i < attack::kStageCount; ++i) {
    const auto& t = model.transitions[i];
    bench::row({to_string(static_cast<attack::Stage>(i)),
                bench::fmt(t.attempt_rate), bench::fmt(t.success_probability),
                bench::fmt(t.detection_rate, 5),
                bench::fmt(model.expected_stage_time(i), 1)},
               18);
  }
  std::printf("expected E[TTA] ignoring detection: %.1f h\n",
              model.expected_total_time());

  bench::section("E2 step 2: DoE & Measurements (full factorial, 3 components)");
  const auto table =
      pipeline.measure_full_factorial({"os.control", "plc.firmware", "firewall"}, 0);
  std::printf("configurations measured: %zu  (replications each: %zu)\n",
              table.configuration_count(), options().measurement.replications);
  bench::row({"os.control", "plc.firmware", "firewall", "P[success]", "E[TTA] h"},
             20);
  for (std::size_t c = 0; c < table.configuration_count(); ++c) {
    const auto levels = table.space.decode(c);
    bench::row({table.space.factor(0).levels[levels[0]],
                table.space.factor(1).levels[levels[1]],
                table.space.factor(2).levels[levels[2]],
                bench::fmt(table.summaries[c].attack_success_probability()),
                bench::fmt(table.summaries[c].tta.mean(), 1)},
               20);
  }

  bench::section("E2 step 3: Diversity Assessment (ANOVA)");
  const auto assessment = pipeline.assess(table);
  std::printf("%s\n", assessment.report.c_str());
}

/// The paper lists three candidate formalisms for step 1 ("Bayesian
/// networks, Petri-nets, or attack trees"); all three are implemented.
/// Show that they agree on the monoculture-vs-diverse ordering even
/// though their abstractions (dynamic trajectory / static chain /
/// scenario algebra) differ.
void print_formalism_agreement() {
  const core::SystemDescription desc = core::make_scope_description(catalog());
  const core::Pipeline pipeline(desc, attack::ThreatProfile::stuxnet(), options());
  constexpr double kHorizon = 2160.0;

  core::Configuration diverse = desc.baseline_configuration();
  diverse.variant[1] = 2;  // control OS -> linux
  diverse.variant[2] = 3;  // PLC firmware -> abb

  bench::section("E2 extra: the three formalisms on monoculture vs diversified");
  bench::row({"formalism", "monoculture", "diversified", "ratio"}, 22);

  const auto for_config = [&](const core::Configuration& c) {
    return pipeline.attack_model(c);
  };
  const auto mono_model = for_config(desc.baseline_configuration());
  const auto div_model = for_config(diverse);

  // SAN (Petri-family): Monte-Carlo success within horizon.
  const auto san_p = [&](const attack::StagedAttackModel& m) {
    const attack::AttackSan a = attack::build_attack_san(m);
    return san::first_passage(a.model, a.success_predicate(), kHorizon, 4000, 3)
        .absorption_probability();
  };
  const double san_mono = san_p(mono_model);
  const double san_div = san_p(div_model);
  bench::row({"SAN (Monte-Carlo)", bench::fmt(san_mono), bench::fmt(san_div),
              bench::fmt(san_div > 0 ? san_mono / san_div : 0.0, 1)},
             22);

  // Bayesian network: static chain abstraction.
  const double bn_mono =
      attack::make_attack_bayesian_network(mono_model, kHorizon)
          .impairment_probability();
  const double bn_div = attack::make_attack_bayesian_network(div_model, kHorizon)
                            .impairment_probability();
  bench::row({"Bayesian network", bench::fmt(bn_mono), bench::fmt(bn_div),
              bench::fmt(bn_div > 0 ? bn_mono / bn_div : 0.0, 1)},
             22);

  // Attack tree: per-stage success probabilities as leaves.
  const auto tree_p = [](const attack::StagedAttackModel& m) {
    return attack::make_staged_attack_tree(0.9, m.transitions[0].success_probability,
                                           m.transitions[1].success_probability,
                                           m.transitions[2].success_probability,
                                           m.transitions[3].success_probability)
        .success_probability();
  };
  const double tree_mono = tree_p(mono_model);
  const double tree_div = tree_p(div_model);
  bench::row({"attack tree", bench::fmt(tree_mono), bench::fmt(tree_div),
              bench::fmt(tree_div > 0 ? tree_mono / tree_div : 0.0, 1)},
             22);

  std::printf(
      "\nShape check: absolute numbers differ by construction (trajectory vs\n"
      "static abstractions) but all three formalisms agree the diversified\n"
      "system is substantially harder to defeat.\n");
}

/// Serial vs parallel wall time of the step-2 measurement — the batched
/// (cell × replication) engine is the pipeline's hot path. The parallel
/// run is bit-identical to the serial one
/// (MeasurementParallelFixture.StagedSanFactorialBitIdenticalAcrossThreads),
/// so the speedup is free of statistical caveats.
void print_parallel_speedup() {
  const core::SystemDescription desc = core::make_scope_description(catalog());
  const std::vector<std::string> factors{"os.control", "plc.firmware", "firewall"};

  const auto timed_run = [&desc](const sim::Executor& ex,
                                 const std::vector<std::string>& names) {
    core::PipelineOptions po = options();
    po.measurement.executor = &ex;
    const core::Pipeline pipeline(desc, attack::ThreatProfile::stuxnet(), po);
    const auto t0 = std::chrono::steady_clock::now();
    (void)pipeline.measure_full_factorial(names, 0);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  const sim::Executor serial(1);
  const std::size_t default_threads = sim::Executor::default_thread_count();
  const sim::Executor threaded(default_threads > 1 ? default_threads : 4);

  bench::section("E2 extra: batched parallel measurement engine");
  const double serial_ms = timed_run(serial, factors);
  const double parallel_ms = timed_run(threaded, factors);

  const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  bench::row({"variant", "threads", "wall ms", "speedup"}, 16);
  bench::row({"serial", "1", bench::fmt(serial_ms, 1), bench::fmt(1.0, 2)}, 16);
  bench::row({"parallel", bench::fmt_int(static_cast<long long>(threaded.thread_count())),
              bench::fmt(parallel_ms, 1), bench::fmt(speedup, 2)},
             16);

  bench::write_bench_json(
      "BENCH_e2_parallel.json",
      {{"e2.measure_full_factorial.serial", serial_ms, 1, 1.0},
       {"e2.measure_full_factorial.parallel", parallel_ms,
        static_cast<int>(threaded.thread_count()), speedup}});
}

/// Streaming vs buffered aggregation on the staged-SAN engine: the same
/// 4-cell × many-replication measurement once streaming and once with a
/// cell visitor, which makes the engine retain the sample matrix, each
/// timed. Their identical summaries are
/// MeasurementParallelFixture.VisitorSeesSamplesWithoutChangingSummaries,
/// and the streaming path's flat heap is
/// StreamingHeap.PeakIsFlatInReplicationsWhileTheVisitorPathGrows.
void print_streaming_vs_buffered() {
  const core::SystemDescription desc = core::make_scope_description(catalog());
  constexpr std::size_t kReps = 50000;

  core::MeasurementOptions mo = options().measurement;
  mo.replications = kReps;

  core::ScenarioSweepPlan plan;
  for (std::size_t c = 0; c < 4; ++c) {
    core::Configuration config = desc.baseline_configuration();
    config.variant[1] = c % 2;       // control OS
    config.variant[2] = (c / 2) % 2; // PLC firmware
    plan.cells.push_back({desc.instantiate(config), mo.seed + 7919 * c});
  }

  const attack::ThreatProfile profile = attack::ThreatProfile::stuxnet();
  bench::section("E2 extra: streaming vs buffered aggregation (staged SAN)");
  std::printf("cells=%zu replications=%zu\n", plan.cell_count(), kReps);

  const core::MeasurementEngine engine(catalog(), profile, mo);
  const auto timed_ms = [&](const core::MeasurementEngine::CellVisitor& visit) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)engine.measure_scenarios(plan, visit);
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  const double stream_ms = timed_ms(nullptr);
  const double buffered_ms =
      timed_ms([](std::size_t, std::span<const core::IndicatorSample>) {});
  std::printf("wall ms: streaming %.1f, buffered %.1f\n", stream_ms,
              buffered_ms);

  const int threads = static_cast<int>(engine.executor().thread_count());
  bench::write_bench_json(
      "BENCH_e2_streaming.json",
      {{"e2.streaming_4x" + std::to_string(kReps), stream_ms, threads, 1.0},
       {"e2.buffered_4x" + std::to_string(kReps), buffered_ms, threads, 1.0}});
}

void BM_Step1_AttackModeling(benchmark::State& state) {
  const core::SystemDescription desc = core::make_scope_description(catalog());
  const core::Pipeline pipeline(desc, attack::ThreatProfile::stuxnet(), options());
  for (auto _ : state) {
    auto m = pipeline.attack_model(desc.baseline_configuration());
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_Step1_AttackModeling);

void BM_Step2_MeasureOneConfiguration(benchmark::State& state) {
  const core::SystemDescription desc = core::make_scope_description(catalog());
  auto mo = options().measurement;
  mo.replications = 100;
  for (auto _ : state) {
    auto s = core::measure_indicators(desc, desc.baseline_configuration(),
                                      attack::ThreatProfile::stuxnet(), mo);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_Step2_MeasureOneConfiguration)->Unit(benchmark::kMillisecond);

void BM_Step3_Assess(benchmark::State& state) {
  const core::SystemDescription desc = core::make_scope_description(catalog());
  const core::Pipeline pipeline(desc, attack::ThreatProfile::stuxnet(), options());
  const auto table = pipeline.measure_full_factorial({"plc.firmware", "firewall"}, 2);
  for (auto _ : state) {
    auto a = pipeline.assess(table);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_Step3_Assess)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_pipeline_run();
  print_formalism_agreement();
  print_parallel_speedup();
  print_streaming_vs_buffered();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
