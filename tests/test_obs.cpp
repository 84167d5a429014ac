// Tests for the obs:: telemetry subsystem (PR 9). Four contracts:
//
//  1. Lock-free counters: concurrent increments through the Executor
//     lose nothing and merge deterministically (TSan runs this file),
//     and a snapshot taken while writers are running never tears — the
//     totals a reader sees are monotone non-decreasing.
//  2. The sidecar codec: metrics_json round-trips exactly through
//     parse_metrics_json, merge_into follows the sum/max rules, file
//     I/O errors throw, and malformed sidecars are rejected.
//  3. Trace spans nest, flush as balanced Chrome trace-event JSON, and
//     record nothing when no session is active.
//  4. Fold, adaptive and campaign counters are schedule-independent;
//     the kernel's per-class RNG word counts are exact and pinned, and
//     its tallies (flushed per block) are exact whenever a measurement
//     call or a public run() returns, on every sweep path.
//  5. The out-of-band invariant: sweep CSV bytes are identical with
//     recording enabled or disabled, for 1/4/8 threads. (The compiled-
//     out leg is CI's -DDIVSEC_OBS=0 build of this same test.)
//
// Assertions on recorded *values* are #if DIVSEC_OBS — in a compiled-
// out build recording is a no-op and everything reads zero, but the
// cold sidecar layer and the invariant tests still run.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "attack/campaign.h"
#include "attack/campaign_rng.h"
#include "core/ratio_curve.h"
#include "dist/adaptive.h"
#include "dist/state_codec.h"
#include "dist/sweep.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/executor.h"
#include "stats/rng.h"

namespace divsec {
namespace {

// --- 1. Lock-free counters under load ---------------------------------

TEST(ObsRegistry, HandlesAreStableAcrossLookups) {
  obs::Counter& a = obs::counter("test.obs.stable");
  obs::Counter& b = obs::counter("test.obs.stable");
  EXPECT_EQ(&a, &b);
  obs::Gauge& g1 = obs::gauge("test.obs.stable_gauge");
  obs::Gauge& g2 = obs::gauge("test.obs.stable_gauge");
  EXPECT_EQ(&g1, &g2);
}

TEST(ObsRegistry, CounterMergeIsDeterministicUnderExecutorLoad) {
  obs::reset();
  obs::set_enabled(true);
  constexpr std::size_t kJobs = 100000;
  obs::Counter& hits = obs::counter("test.obs.load_hits");
  obs::Histogram& sizes = obs::histogram("test.obs.load_sizes");
  const sim::Executor ex(8);
  ex.parallel_for(0, kJobs, [&](std::size_t i) {
    hits.add(1);
    sizes.observe(i % 17);
  });
#if DIVSEC_OBS
  EXPECT_EQ(hits.total(), kJobs);
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("test.obs.load_hits"), kJobs);
  const obs::HistogramValue* h = snap.histogram("test.obs.load_sizes");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kJobs);
  // Sum of i % 17 over [0, 100000) is exact and schedule-independent.
  std::uint64_t expected_sum = 0;
  for (std::size_t i = 0; i < kJobs; ++i) expected_sum += i % 17;
  EXPECT_EQ(h->sum, expected_sum);
#endif
}

TEST(ObsRegistry, SnapshotWhileIncrementingNeverTears) {
  obs::reset();
  obs::set_enabled(true);
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 200000;
  obs::Counter& c = obs::counter("test.obs.tear");
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {}
      for (std::uint64_t i = 0; i < kPerWriter; ++i) c.add(1);
    });
  go.store(true, std::memory_order_release);
  // Each stripe is monotone and same-thread re-reads respect coherence
  // order, so this reader's successive totals must never decrease.
  std::uint64_t last = 0;
  for (int probe = 0; probe < 1000; ++probe) {
    const std::uint64_t now = c.total();
    EXPECT_GE(now, last);
    EXPECT_LE(now, kWriters * kPerWriter);
    last = now;
  }
  for (auto& t : writers) t.join();
#if DIVSEC_OBS
  EXPECT_EQ(c.total(), kWriters * kPerWriter);
#endif
}

TEST(ObsRegistry, GaugeRecordMaxIsTheMaxAcrossThreads) {
  obs::reset();
  obs::set_enabled(true);
  obs::Gauge& g = obs::gauge("test.obs.max");
  const sim::Executor ex(4);
  ex.parallel_for(0, 10000, [&](std::size_t i) { g.record_max(i); });
#if DIVSEC_OBS
  EXPECT_EQ(g.value(), 9999u);
#endif
}

TEST(ObsRegistry, DisableFreezesAndResetZeroes) {
  obs::reset();
  obs::set_enabled(true);
  obs::Counter& c = obs::counter("test.obs.freeze");
  c.add(5);
  obs::set_enabled(false);
  c.add(100);  // dropped: recording is off
  obs::set_enabled(true);
#if DIVSEC_OBS
  EXPECT_EQ(c.total(), 5u);
#endif
  obs::reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(ObsRegistry, HistogramBucketsAreLog2) {
#if DIVSEC_OBS
  EXPECT_EQ(obs::Histogram::bucket_of(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_of(2), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(3), 2u);
  EXPECT_EQ(obs::Histogram::bucket_of(4), 3u);
  EXPECT_EQ(obs::Histogram::bucket_of(~std::uint64_t{0}),
            obs::kHistogramBuckets - 1);
#endif
  obs::reset();
  obs::set_enabled(true);
  obs::Histogram& h = obs::histogram("test.obs.log2");
  for (std::uint64_t v : {0ull, 1ull, 1ull, 1000ull}) h.observe(v);
#if DIVSEC_OBS
  obs::HistogramValue hv;
  h.fill(hv);
  EXPECT_EQ(hv.count, 4u);
  EXPECT_EQ(hv.sum, 1002u);
  EXPECT_DOUBLE_EQ(hv.mean(), 1002.0 / 4.0);
  // p25 lands in the ones, p100 in 1000's bucket: the log2 upper edge
  // bounds the true quantile within a factor of two.
  EXPECT_GE(hv.quantile(1.0), 1000.0);
  EXPECT_LE(hv.quantile(1.0), 2048.0);
#endif
}

// --- 2. The sidecar codec ---------------------------------------------

TEST(ObsSidecar, JsonRoundTripsExactly) {
  obs::Snapshot snap;
  snap.counters.push_back({"a.count", 42});
  snap.counters.push_back({"b.count", ~std::uint64_t{0}});  // max u64
  snap.gauges.push_back({"a.peak", 7});
  obs::HistogramValue h;
  h.name = "a.hist";
  h.count = 3;
  h.sum = 1002;
  h.buckets[0] = 1;
  h.buckets[1] = 1;
  h.buckets[10] = 1;
  snap.histograms.push_back(h);

  const std::string json = obs::metrics_json(snap);
  const obs::Snapshot back = obs::parse_metrics_json(json);
  ASSERT_EQ(back.counters.size(), 2u);
  EXPECT_EQ(back.counter("a.count"), 42u);
  EXPECT_EQ(back.counter("b.count"), ~std::uint64_t{0});
  EXPECT_EQ(back.gauge("a.peak"), 7u);
  const obs::HistogramValue* hb = back.histogram("a.hist");
  ASSERT_NE(hb, nullptr);
  EXPECT_EQ(hb->count, 3u);
  EXPECT_EQ(hb->sum, 1002u);
  EXPECT_EQ(hb->buckets, h.buckets);
  // Re-emission is byte-identical: the sidecar format is canonical.
  EXPECT_EQ(obs::metrics_json(back), json);
}

TEST(ObsSidecar, MergeSumsCountersAndMaxesGauges) {
  obs::Snapshot a;
  a.counters.push_back({"shared", 10});
  a.gauges.push_back({"peak", 5});
  obs::HistogramValue ha;
  ha.name = "lat";
  ha.count = 2;
  ha.sum = 6;
  ha.buckets[2] = 2;
  a.histograms.push_back(ha);

  obs::Snapshot b;
  b.counters.push_back({"only_b", 1});
  b.counters.push_back({"shared", 32});
  b.gauges.push_back({"peak", 3});
  obs::HistogramValue hb;
  hb.name = "lat";
  hb.count = 1;
  hb.sum = 100;
  hb.buckets[7] = 1;
  b.histograms.push_back(hb);

  obs::merge_into(a, b);
  EXPECT_EQ(a.counter("shared"), 42u);
  EXPECT_EQ(a.counter("only_b"), 1u);
  EXPECT_EQ(a.gauge("peak"), 5u);  // max, not sum
  const obs::HistogramValue* m = a.histogram("lat");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->count, 3u);
  EXPECT_EQ(m->sum, 106u);
  EXPECT_EQ(m->buckets[2], 2u);
  EXPECT_EQ(m->buckets[7], 1u);
  // Sorted-name invariant survives the insertion of only_b.
  for (std::size_t i = 1; i < a.counters.size(); ++i)
    EXPECT_LT(a.counters[i - 1].name, a.counters[i].name);
}

TEST(ObsSidecar, RejectsMalformedInput) {
  EXPECT_THROW((void)obs::parse_metrics_json(""), std::runtime_error);
  EXPECT_THROW((void)obs::parse_metrics_json("{}"), std::runtime_error);
  EXPECT_THROW((void)obs::parse_metrics_json("{\"divsec_metrics\": 99}"),
               std::runtime_error);
  // Truncated mid-object.
  EXPECT_THROW((void)obs::parse_metrics_json(
                   "{\"divsec_metrics\": 1, \"counters\": {\"a\": "),
               std::runtime_error);
  // Inputs that used to parse: leading zeros, bytes after the object, a
  // metric listed twice.
  obs::Snapshot snap;
  snap.counters.push_back({"a.count", 42});
  snap.counters.push_back({"b.count", 1});
  snap.gauges.push_back({"a.peak", 7});
  const std::string json = obs::metrics_json(snap);
  const auto edit = [&json](const std::string& from, const std::string& to) {
    std::string s = json;
    s.replace(s.find(from), from.size(), to);
    return s;
  };
  EXPECT_EQ(obs::metrics_json(obs::parse_metrics_json(json)), json);
  for (const std::string& bad :
       {edit("\"divsec_metrics\": 1", "\"divsec_metrics\": 01"),
        edit("\"a.peak\": 7", "\"a.peak\": 007"), json + "x",
        edit("\"b.count\"", "\"a.count\"")})
    EXPECT_THROW((void)obs::parse_metrics_json(bad), std::runtime_error) << bad;
}

TEST(ObsSidecar, FileRoundTripAndMissingFileThrows) {
  obs::Snapshot snap;
  snap.counters.push_back({"io.test", 123});
  const std::string path = "test_obs_sidecar.metrics.json";
  obs::write_metrics_file(path, snap);
  const obs::Snapshot back = obs::read_metrics_file(path);
  EXPECT_EQ(back.counter("io.test"), 123u);
  std::remove(path.c_str());
  EXPECT_THROW((void)obs::read_metrics_file(path), std::runtime_error);
}

// --- 3. Trace spans ----------------------------------------------------

std::size_t count_occurrences(const std::string& text,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(ObsTrace, SpansNestAndFlushBalancedJson) {
  obs::trace_start();
  {
    const obs::Span outer("test.outer");
    const obs::Span inner("test.inner");
    (void)outer;
    (void)inner;
  }
  {
    const obs::Span solo("test.solo");
    (void)solo;
  }
  const std::string path = "test_obs_trace.json";
  obs::trace_stop(path);

  std::string json;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    char buf[1 << 12];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) json.append(buf, n);
    std::fclose(f);
  }
  std::remove(path.c_str());

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
#if DIVSEC_OBS
  // Three complete events, each a "ph": "X" record with its name.
  EXPECT_EQ(count_occurrences(json, "\"ph\": \"X\""), 3u);
  EXPECT_EQ(count_occurrences(json, "\"test.outer\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"test.inner\""), 1u);
  EXPECT_EQ(count_occurrences(json, "\"test.solo\""), 1u);
#endif
  // Balanced braces/brackets: the file is structurally sound JSON.
  EXPECT_EQ(count_occurrences(json, "{"), count_occurrences(json, "}"));
  EXPECT_EQ(count_occurrences(json, "["), count_occurrences(json, "]"));
}

TEST(ObsTrace, NoSessionRecordsNothing) {
#if DIVSEC_OBS
  ASSERT_FALSE(obs::trace_enabled());
  {
    const obs::Span ignored("test.ignored");
    (void)ignored;
  }
  obs::trace_start();
  const std::string json = obs::trace_json();  // ends the session
  EXPECT_EQ(count_occurrences(json, "\"ph\""), 0u);
  EXPECT_EQ(count_occurrences(json, "test.ignored"), 0u);
#endif
}

// --- 4. Reducer fold telemetry -----------------------------------------

TEST(ObsReducer, FoldCountersAreScheduleIndependent) {
  // 3 cells x 48 reps, superblock 16, block 8: 9 superblock tasks of 2
  // blocks each. Every run records all three fold metrics, whichever
  // thread count claims the (task, block) items.
  dist::SweepSpec spec;
  spec.preset = "plant_small";
  spec.seed = 4242;
  spec.replications = 48;
  spec.replication_block = 8;
  spec.superblock = 16;
  constexpr std::uint64_t kTasks = 9;
  constexpr std::uint64_t kBlocksPerTask = 2;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const sim::Executor ex(threads);
    obs::reset();
    (void)dist::run_in_process(spec, &ex);
#if DIVSEC_OBS
    const obs::Snapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter("sim.streaming.blocks"), kTasks * kBlocksPerTask)
        << "threads=" << threads;
    EXPECT_EQ(snap.counter("sim.streaming.groups"), kTasks)
        << "threads=" << threads;
    const obs::HistogramValue* fold = snap.histogram("sim.streaming.group_fold_ns");
    ASSERT_NE(fold, nullptr);
    EXPECT_EQ(fold->count, kTasks) << "threads=" << threads;
#endif
  }
}

TEST(ObsReducer, AdaptiveCountersMatchTheReport) {
  // The adaptive round loop adds to adapt.* once per round; the totals
  // must agree with the report it returns, whatever the thread count.
  dist::SweepSpec spec;
  spec.preset = "plant_small";
  spec.seed = 4242;
  spec.replications = 256;
  spec.replication_block = 8;
  spec.superblock = 32;
  const divers::VariantCatalog catalog =
      divers::VariantCatalog::standard(spec.seed);
  const attack::ThreatProfile profile = dist::threat_profile(spec.threat);
  const core::ScenarioSweepPlan plan = dist::expand_plan(spec, catalog);
  core::AdaptiveOptions adaptive;
  adaptive.relative_precision = 0.10;
  adaptive.absolute_precision = 0.02;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const sim::Executor ex(threads);
    const core::MeasurementEngine engine(catalog, profile,
                                         dist::sweep_options(spec, &ex));
    obs::reset();
    core::AdaptiveReport report;
    (void)engine.measure_scenarios_adaptive(plan, adaptive, &report);
    ASSERT_GT(report.total_rounds, 1u);
#if DIVSEC_OBS
    const obs::Snapshot snap = obs::snapshot();
    EXPECT_EQ(snap.counter("adapt.rounds"), report.total_rounds)
        << "threads=" << threads;
    EXPECT_EQ(snap.counter("adapt.round_replications"),
              report.total_replications)
        << "threads=" << threads;
#endif
  }
}

// --- 4b. Campaign kernel RNG accounting ---------------------------------

TEST(ObsCampaign, WordsDrawnCountsWordsNotBlocks) {
  // words_drawn counts handed-out words per class; a class never drawn
  // reads 0. The pattern only visits even classes; class 4 is skipped.
  const stats::Rng base(7, 3);
  attack::CampaignRng rng(base);
  std::array<std::uint64_t, attack::kDrawClassCount> want{};
  for (std::size_t i = 0; i < 1000; ++i) {
    const std::size_t c = (i * i + 3 * i) % attack::kDrawClassCount;
    if (c == 4) continue;
    (void)rng.next(static_cast<attack::DrawClass>(c));
    ++want[c];
  }
  EXPECT_EQ(rng.words_drawn(), want);
}

TEST(ObsCampaign, RngWordTotalsArePinned) {
  // Per-class campaign.rng_words.* totals of a fixed sweep, pinned
  // exactly, at 1 and 4 threads: the ledger perfbench's
  // attack.rng_words_per_event is computed from.
  dist::SweepSpec spec;
  spec.preset = "plant_small";
  spec.seed = 4242;
  spec.replications = 48;
  spec.replication_block = 8;
  spec.superblock = 16;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const sim::Executor ex(threads);
    obs::reset();
    (void)dist::run_in_process(spec, &ex);
#if DIVSEC_OBS
    const obs::Snapshot snap = obs::snapshot();
    const std::array<std::uint64_t, attack::kDrawClassCount> got = {
        snap.counter("campaign.rng_words.entry"),
        snap.counter("campaign.rng_words.activation"),
        snap.counter("campaign.rng_words.privesc"),
        snap.counter("campaign.rng_words.propagation"),
        snap.counter("campaign.rng_words.payload"),
        snap.counter("campaign.rng_words.sabotage"),
        snap.counter("campaign.rng_words.host_ids"),
        snap.counter("campaign.rng_words.alarm")};
    const std::array<std::uint64_t, attack::kDrawClassCount> pinned = {
        994, 2493, 1354, 5316, 2254, 272, 385, 6594};
    EXPECT_EQ(got, pinned) << "threads=" << threads;
#endif
  }
}

/// The campaign ledger the registry holds: replications, executed
/// events and RNG words per class.
struct CampaignLedger {
  std::uint64_t runs = 0;
  std::uint64_t events = 0;
  std::array<std::uint64_t, attack::kDrawClassCount> words{};
  bool operator==(const CampaignLedger&) const = default;
};

CampaignLedger campaign_ledger() {
  const obs::Snapshot snap = obs::snapshot();
  CampaignLedger l;
  l.runs = snap.counter("campaign.runs");
  l.events = snap.counter("campaign.events.executed");
  static constexpr const char* kClasses[attack::kDrawClassCount] = {
      "entry",   "activation", "privesc",  "propagation",
      "payload", "sabotage",   "host_ids", "alarm"};
  for (std::size_t c = 0; c < attack::kDrawClassCount; ++c)
    l.words[c] = snap.counter(std::string("campaign.rng_words.") + kClasses[c]);
  return l;
}

/// 4 contiguous shards of `spec`'s task list, run and merged; returns
/// the registry ledger of the whole cut.
CampaignLedger four_shard_ledger(const dist::SweepSpec& spec,
                                 const sim::Executor& ex) {
  obs::reset();
  std::vector<dist::ShardState> states;
  for (std::size_t i = 0; i < 4; ++i)
    states.push_back(dist::run_shard(spec, i, 4, &ex));
  (void)dist::merge_shards(states);
  return campaign_ledger();
}

TEST(ObsCampaign, KernelTelemetryIsExactOnEveryPath) {
  // Kernel tallies reach the registry once per replication block, so
  // the totals must be exact when a measurement call returns: the same
  // for the in-process sweep and a 4-shard cut of it, and for an
  // adaptive run and its 4-shard replay, at any thread count. 200 reps
  // per cell with blocks of 16 leave a partial last block.
  dist::SweepSpec spec;
  spec.preset = "plant_small";
  spec.seed = 4242;
  spec.replications = 200;
  spec.replication_block = 16;
  spec.superblock = 64;
  core::AdaptiveOptions adaptive;
  adaptive.relative_precision = 0.10;
  adaptive.absolute_precision = 0.02;
  [[maybe_unused]] std::optional<CampaignLedger> fixed_ref, adaptive_ref;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const sim::Executor ex(threads);
    obs::reset();
    (void)dist::run_in_process(spec, &ex);
    [[maybe_unused]] const CampaignLedger in_process = campaign_ledger();
    [[maybe_unused]] const CampaignLedger sharded = four_shard_ledger(spec, ex);

    obs::reset();
    const dist::MergeResult adapted = dist::run_adaptive(spec, adaptive, &ex);
    [[maybe_unused]] const CampaignLedger adaptive_run = campaign_ledger();
    [[maybe_unused]] const CampaignLedger replayed = four_shard_ledger(
        dist::spec_from_meta(adapted.meta), ex);
#if DIVSEC_OBS
    EXPECT_EQ(in_process.runs, 3 * spec.replications);
    EXPECT_GT(in_process.events, in_process.runs);
    EXPECT_EQ(sharded, in_process);
    std::uint64_t achieved = 0;
    for (const std::uint64_t a : adapted.meta.achieved) achieved += a;
    EXPECT_LT(achieved, 3 * spec.replications);  // some cell stopped early
    EXPECT_EQ(adaptive_run.runs, achieved);
    EXPECT_EQ(replayed, adaptive_run);
    if (!fixed_ref) fixed_ref = in_process, adaptive_ref = adaptive_run;
    EXPECT_EQ(in_process, *fixed_ref);
    EXPECT_EQ(adaptive_run, *adaptive_ref);
#endif
  }
}

TEST(ObsCampaign, PublicRunIsInTheRegistryWhenItReturns) {
  const divers::VariantCatalog cat = divers::VariantCatalog::standard(2013);
  const attack::CampaignSimulator sim(attack::make_scope_cooling_scenario(),
                                      attack::ThreatProfile::stuxnet(), cat);
  attack::CampaignSimulator::flush_telemetry();  // nothing pending here
  obs::reset();
  stats::Rng rng(2013, 5);
  const attack::CampaignResult r = sim.run(rng);
  [[maybe_unused]] const CampaignLedger after_run = campaign_ledger();

  // The engine's run keeps its tallies until the flush.
  const std::vector<double> edges = core::curve_bin_edges(2160.0, 64);
  std::vector<std::uint32_t> counts(edges.size());
  obs::reset();
  const attack::CampaignResult binned = sim.run(rng, {edges, counts});
  [[maybe_unused]] const CampaignLedger before_flush = campaign_ledger();
  attack::CampaignSimulator::flush_telemetry();
  [[maybe_unused]] const CampaignLedger after_flush = campaign_ledger();
#if DIVSEC_OBS
  EXPECT_EQ(after_run.runs, 1u);
  EXPECT_EQ(after_run.events, r.events_executed);
  EXPECT_EQ(before_flush, CampaignLedger{});
  EXPECT_EQ(after_flush, after_run);
  EXPECT_EQ(binned.events_executed, r.events_executed);
#endif
}

// --- 5. The out-of-band invariant --------------------------------------

TEST(ObsInvariant, SweepCsvBytesIdenticalWithRecordingOnOrOff) {
  dist::SweepSpec spec;
  spec.preset = "plant_small";
  spec.seed = 4242;
  spec.replications = 24;
  spec.replication_block = 8;
  spec.superblock = 8;
  const dist::SweepMeta meta = dist::make_meta(spec);

  std::string reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    const sim::Executor ex(threads);
    for (const bool recording : {true, false}) {
      obs::set_enabled(recording);
      const auto summaries = dist::run_in_process(spec, &ex);
      const std::string csv = dist::sweep_csv(meta, summaries);
      if (reference.empty()) reference = csv;
      EXPECT_EQ(csv, reference)
          << "CSV drifted: threads=" << threads
          << " recording=" << recording;
    }
  }
  obs::set_enabled(true);
  EXPECT_FALSE(reference.empty());
}

TEST(ObsInvariant, ShardStateBytesIdenticalWithRecordingOnOrOff) {
  dist::SweepSpec spec;
  spec.preset = "plant_small";
  spec.seed = 4242;
  spec.replications = 24;
  spec.replication_block = 8;
  spec.superblock = 8;

  obs::set_enabled(true);
  const dist::ShardState on = dist::run_shard(spec, 0, 2);
  obs::set_enabled(false);
  const dist::ShardState off = dist::run_shard(spec, 0, 2);
  obs::set_enabled(true);
  // Wall-clock meta fields differ run to run by design; the partials —
  // the bytes that decide every merged result — must not.
  ASSERT_EQ(on.tasks, off.tasks);
  ASSERT_EQ(on.partials.size(), off.partials.size());
  for (std::size_t t = 0; t < on.partials.size(); ++t)
    EXPECT_EQ(dist::accumulator_json(on.partials[t]),
              dist::accumulator_json(off.partials[t]));
}

}  // namespace
}  // namespace divsec
