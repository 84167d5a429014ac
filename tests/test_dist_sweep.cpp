// Tests for the distributed sweep subsystem: accumulator state
// serialization must round-trip exactly (serialize -> load -> serialize
// is byte-stable), and `run --shard i/K` + `merge` must reproduce the
// in-process streaming path bit for bit — for any shard count K,
// including 1, and regardless of the thread count each shard used.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "codec_fixtures.h"
#include "dist/state_codec.h"
#include "dist/sweep.h"
#include "obs/metrics.h"
#include "sim/executor.h"
#include "sim/shard_plan.h"

namespace divsec::dist {
namespace {

using fixtures::filled_accumulator;
using fixtures::rich_state;
using fixtures::signed_bytes;
using fixtures::small_spec;

void expect_bit_identical(const core::IndicatorSummary& a,
                          const core::IndicatorSummary& b) {
  EXPECT_EQ(a.replications, b.replications);
  // EXPECT_EQ (not NEAR): the distributed path must reproduce the
  // in-process floating-point results exactly.
  EXPECT_EQ(a.tta.mean(), b.tta.mean());
  EXPECT_EQ(a.tta.variance(), b.tta.variance());
  EXPECT_EQ(a.tta.min(), b.tta.min());
  EXPECT_EQ(a.tta.max(), b.tta.max());
  EXPECT_EQ(a.ttsf.mean(), b.ttsf.mean());
  EXPECT_EQ(a.ttsf.variance(), b.ttsf.variance());
  EXPECT_EQ(a.final_ratio.mean(), b.final_ratio.mean());
  EXPECT_EQ(a.tta_censored, b.tta_censored);
  EXPECT_EQ(a.ttsf_censored, b.ttsf_censored);
  EXPECT_EQ(a.successes, b.successes);
  EXPECT_EQ(a.tta_event.restricted_mean, b.tta_event.restricted_mean);
  EXPECT_EQ(a.tta_event.median, b.tta_event.median);
  EXPECT_EQ(a.tta_event.q50, b.tta_event.q50);
  EXPECT_EQ(a.tta_event.q90, b.tta_event.q90);
  EXPECT_EQ(a.ttsf_event.restricted_mean, b.ttsf_event.restricted_mean);
  EXPECT_EQ(a.ttsf_event.median, b.ttsf_event.median);
  EXPECT_EQ(a.ttsf_event.q50, b.ttsf_event.q50);
  EXPECT_EQ(a.ttsf_event.q90, b.ttsf_event.q90);
}

// ---- serialization ---------------------------------------------------------

TEST(StateCodec, AccumulatorStateRoundTripsExactly) {
  const core::IndicatorAccumulator acc = filled_accumulator(7, 333);
  const auto restored = core::IndicatorAccumulator::from_state(acc.state());
  const core::IndicatorSummary a = acc.summarize();
  const core::IndicatorSummary b = restored.summarize();
  expect_bit_identical(a, b);

  // And the restored accumulator keeps folding identically: merge the
  // same partial into both and compare again.
  core::IndicatorAccumulator x = acc;
  core::IndicatorAccumulator y = restored;
  const core::IndicatorAccumulator more = filled_accumulator(8, 57);
  x.merge(more);
  y.merge(more);
  expect_bit_identical(x.summarize(), y.summarize());
}

TEST(StateCodec, EncodeDecodeEncodeIsByteStable) {
  ShardState state;
  state.meta = make_meta(small_spec());
  state.meta.shard = 1;
  state.meta.shard_count = 3;
  state.meta.wall_ms = 12.5;
  state.tasks = {4, 7, 11};  // non-contiguous, as a cost-weighted plan deals
  state.partials.push_back(filled_accumulator(1, 100).state());
  state.partials.push_back(filled_accumulator(2, 31).state());
  state.partials.push_back(filled_accumulator(3, 64).state());
  // Cost model with awkward doubles: round-trip must be exact per bit.
  state.cost.cells = {{100, 0.1 + 0.2}, {0, 0.0}, {31, 1.0 / 3.0}};

  const std::string bytes = encode_shard_state(state);
  const ShardState decoded = decode_shard_state(bytes);
  const std::string again = encode_shard_state(decoded);
  EXPECT_EQ(bytes, again);  // serialize -> load -> serialize, byte-stable

  EXPECT_EQ(decoded.meta.preset, state.meta.preset);
  EXPECT_EQ(decoded.meta.policies, state.meta.policies);
  EXPECT_EQ(decoded.tasks, state.tasks);
  ASSERT_EQ(decoded.cost.cells.size(), 3u);
  EXPECT_EQ(decoded.cost.cells[0].replications, 100u);
  EXPECT_EQ(decoded.cost.cells[0].seconds, 0.1 + 0.2);
  EXPECT_EQ(decoded.cost.cells[2].seconds, 1.0 / 3.0);
  EXPECT_EQ(sweep_fingerprint(decoded.meta), sweep_fingerprint(state.meta));
  EXPECT_EQ(cost_fingerprint(decoded.meta), cost_fingerprint(state.meta));
}

TEST(StateCodec, RejectsCorruptBytes) {
  ShardState state;
  state.meta = make_meta(small_spec());
  state.tasks = {0};
  state.partials.push_back(filled_accumulator(3, 64).state());
  std::string bytes = encode_shard_state(state);

  EXPECT_THROW((void)decode_shard_state("not a state file"),
               std::runtime_error);
  EXPECT_THROW((void)decode_shard_state(bytes.substr(0, bytes.size() / 2)),
               std::runtime_error);
  std::string flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x5A;  // damage the payload
  EXPECT_THROW((void)decode_shard_state(flipped), std::runtime_error);
  std::string wrong_version = bytes;
  wrong_version[8] = 99;  // version field follows the 8-byte magic
  EXPECT_THROW((void)decode_shard_state(wrong_version), std::runtime_error);

  // Structurally inconsistent meta: a cell count that disagrees with the
  // policy list would drive downstream per-cell policy lookups out of
  // bounds, so decode must reject it.
  ShardState inconsistent = state;
  inconsistent.meta.cells = 5;  // policies.size() == 3
  EXPECT_THROW((void)decode_shard_state(encode_shard_state(inconsistent)),
               std::runtime_error);
}

TEST(StateCodec, AdaptiveSectionsRoundTripByteStable) {
  const ShardState state = rich_state();
  const std::string bytes = encode_shard_state(state);
  const ShardState decoded = decode_shard_state(bytes);
  EXPECT_EQ(encode_shard_state(decoded), bytes);
  EXPECT_EQ(decoded.meta.achieved, state.meta.achieved);
  EXPECT_EQ(decoded.cell_rounds, state.cell_rounds);
  ASSERT_EQ(decoded.rounds.size(), 2u);
  EXPECT_EQ(decoded.rounds[1].replications, 16u);
  EXPECT_EQ(decoded.rounds[0].wall_ms, 10.5);
}

TEST(StateCodec, RejectsOldFormatVersionsWithRegenerateHint) {
  std::string bytes = encode_shard_state(rich_state());
  bytes[8] = 3;  // a pre-t-digest v3 file; version byte follows the magic
  bytes = signed_bytes(bytes.substr(0, bytes.size() - 8));
  try {
    (void)decode_shard_state(bytes);
    FAIL() << "v3 bytes must be rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported format version 3"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("regenerate shards"),
              std::string::npos)
        << e.what();
  }
}

TEST(StateCodec, RejectsTruncationAtEverySectionBoundary) {
  const std::string bytes = encode_shard_state(rich_state());
  const StateSectionSizes sizes = state_section_sizes(bytes);
  EXPECT_EQ(sizes.total(), bytes.size());
  // Cut the file at the start of each section (and just past the framing
  // header), then re-sign the prefix: the checksum is valid, so only the
  // structural section walk can catch the missing tail.
  const std::size_t boundaries[] = {
      sizes.header,
      sizes.header + sizes.meta,
      sizes.header + sizes.meta + sizes.tasks,
      sizes.header + sizes.meta + sizes.tasks + sizes.accumulators,
      sizes.header + sizes.meta + sizes.tasks + sizes.accumulators +
          sizes.cost,
  };
  for (const std::size_t cut : boundaries) {
    EXPECT_THROW((void)decode_shard_state(signed_bytes(bytes.substr(0, cut))),
                 std::runtime_error)
        << "cut at byte " << cut;
    EXPECT_THROW((void)state_section_sizes(signed_bytes(bytes.substr(0, cut))),
                 std::runtime_error)
        << "cut at byte " << cut;
  }
  // Mid-section cuts too (inside the accumulator payload).
  const std::size_t mid = sizes.header + sizes.meta + sizes.tasks +
                          sizes.accumulators / 2;
  EXPECT_THROW((void)decode_shard_state(signed_bytes(bytes.substr(0, mid))),
               std::runtime_error);
}

TEST(StateCodec, DetectsSingleFlippedBitAnywhere) {
  const std::string bytes = encode_shard_state(rich_state());
  // A flip in the trailing checksum itself.
  std::string tail = bytes;
  tail.back() = static_cast<char>(tail.back() ^ 0x01);
  EXPECT_THROW((void)decode_shard_state(tail), std::runtime_error);
  // A sampling of payload positions: every one must fail the checksum.
  for (const std::size_t pos :
       {std::size_t{9}, bytes.size() / 4, bytes.size() / 2,
        bytes.size() - 9}) {
    std::string flipped = bytes;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x10);
    EXPECT_THROW((void)decode_shard_state(flipped), std::runtime_error)
        << "flip at byte " << pos;
  }
}

TEST(StateCodec, PackedEncodingBeatsFixedWidthEquivalent) {
  const ShardState state = rich_state();
  const std::string bytes = encode_shard_state(state);
  const std::size_t equivalent = uncompressed_equivalent_bytes(state);
  // Even this small state packs smaller; the >= 4x contract at many
  // cells is StateCodecGoldenThreads.ManyCellStateMatchesPinnedAndPacksFourfold.
  EXPECT_GT(equivalent, bytes.size());
  const StateSectionSizes sizes = state_section_sizes(bytes);
  EXPECT_GT(sizes.accumulators, 0u);
  EXPECT_GT(sizes.meta, 0u);
  EXPECT_GT(sizes.rounds, 0u);
  EXPECT_EQ(sizes.checksum, 8u);
}

TEST(StateCodec, VersionedHeaderLeadsTheFile) {
  ShardState state;
  state.meta = make_meta(small_spec());
  const std::string bytes = encode_shard_state(state);
  ASSERT_GE(bytes.size(), 12u);
  EXPECT_EQ(bytes.substr(0, 8), "DVSWEEPS");
  EXPECT_EQ(static_cast<unsigned char>(bytes[8]), kStateFormatVersion);
  // The embedded JSON header is plain text near the top of the file.
  EXPECT_NE(bytes.find("divsec-sweep-state"), std::string::npos);
}

// ---- shard planning --------------------------------------------------------

TEST(ShardPlanning, TasksTileTheSweepExactly) {
  const sim::ShardPlan plan = sim::ShardPlan::make(3, 50, 8, 16);
  EXPECT_EQ(plan.superblocks_per_group(), 4u);
  EXPECT_EQ(plan.task_count(), 12u);
  for (std::size_t g = 0; g < 3; ++g) {
    std::size_t covered = 0;
    for (std::size_t s = 0; s < 4; ++s) {
      const auto t = plan.task(g * 4 + s);
      EXPECT_EQ(t.group, g);
      EXPECT_EQ(t.superblock, s);
      EXPECT_EQ(t.begin, covered);
      covered = t.end;
    }
    EXPECT_EQ(covered, 50u);
  }
  // Contiguous balanced shards cover [0, task_count) exactly once.
  for (std::size_t k = 1; k <= 14; ++k) {
    std::size_t expected_lo = 0;
    for (std::size_t i = 0; i < k; ++i) {
      const auto [lo, hi] = plan.shard_range(i, k);
      EXPECT_EQ(lo, expected_lo);
      expected_lo = hi;
    }
    EXPECT_EQ(expected_lo, plan.task_count());
  }
}

TEST(ShardPlanning, RejectsMisalignedSuperblocks) {
  EXPECT_THROW((void)sim::ShardPlan::make(1, 100, 8, 12),
               std::invalid_argument);
  EXPECT_THROW((void)sim::ShardPlan::make(1, 100, 8, 4),
               std::invalid_argument);
  const sim::ShardPlan defaults = sim::ShardPlan::make(2, 100, 0, 0);
  EXPECT_EQ(defaults.block(), sim::kDefaultReductionBlock);
  EXPECT_EQ(defaults.superblock() % defaults.block(), 0u);
}

TEST(ShardPlanning, CountsAtTheUint64BoundaryNeitherWrapNorAllocate) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  // ceil(count / superblock) used to wrap to 0 tasks at 2^64 - 1, so a
  // sweep "ran" no replication and reported zeros; plans of 2^49 tasks
  // died in the task-list allocation. Both are rejected by name.
  for (const std::size_t count : {kMax, kMax - 16383, std::size_t{1} << 63}) {
    try {
      (void)sim::ShardPlan::make(3, count, 0, 0);
      ADD_FAILURE() << count << " replications were accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(count) +
                                           " replications in superblocks of 16384"),
                std::string::npos)
          << e.what();
    }
  }
  // At the task cap exactly, a plan is accepted, and its last task ends
  // at the count instead of wrapping.
  const std::size_t sb = std::size_t{1} << 40;
  const sim::ShardPlan top = sim::ShardPlan::make(
      sim::kMaxTasks / (std::size_t{1} << 24), kMax, 256, sb);
  EXPECT_EQ(top.superblocks_per_group(), std::size_t{1} << 24);
  EXPECT_EQ(top.task_count(), sim::kMaxTasks);
  const auto last = top.task(top.task_count() - 1);
  EXPECT_EQ(last.begin, ((std::size_t{1} << 24) - 1) * sb);
  EXPECT_EQ(last.end, kMax);
  EXPECT_THROW((void)sim::ShardPlan::make(
                   sim::kMaxTasks / (std::size_t{1} << 24) + 1, kMax, 256, sb),
               std::invalid_argument);
  // One superblock as wide as the count: no overflow in the span either.
  const sim::ShardPlan wide = sim::ShardPlan::make(1, kMax, 1, kMax);
  EXPECT_EQ(wide.task_count(), 1u);
  EXPECT_EQ(wide.task_span(), kMax);
  EXPECT_EQ(wide.task(0).end, kMax);
}

// ---- run + merge vs the in-process path ------------------------------------

TEST(DistributedSweep, AnyShardCountMergesBitIdenticalToInProcess) {
  const SweepSpec spec = small_spec();
  const std::vector<core::IndicatorSummary> reference = run_in_process(spec);
  ASSERT_EQ(reference.size(), spec.policies.size());

  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{5}}) {
    std::vector<ShardState> states;
    for (std::size_t i = 0; i < k; ++i)
      states.push_back(run_shard(spec, i, k));
    const MergeResult merged = merge_shards(states);
    ASSERT_EQ(merged.summaries.size(), reference.size()) << "K=" << k;
    for (std::size_t c = 0; c < reference.size(); ++c)
      expect_bit_identical(merged.summaries[c], reference[c]);
    // The emitted CSV artifacts agree byte for byte, too.
    EXPECT_EQ(sweep_csv(merged.meta, merged.summaries),
              sweep_csv(make_meta(spec), reference))
        << "K=" << k;
  }
}

TEST(DistributedSweep, ShardBytesIndependentOfThreadCount) {
  const SweepSpec spec = small_spec();
  const sim::Executor one(1);
  const sim::Executor eight(8);
  ShardState a = run_shard(spec, 1, 3, &one);
  ShardState b = run_shard(spec, 1, 3, &eight);
  // Provenance fields (wall time, thread count, measured costs) differ
  // by design; the accumulator payload must not.
  b.meta.wall_ms = a.meta.wall_ms;
  b.meta.threads = a.meta.threads;
  b.cost = a.cost;
  EXPECT_EQ(encode_shard_state(a), encode_shard_state(b));
}

TEST(DistributedSweep, MoreShardsThanTasksLeavesEmptyShardsValid) {
  SweepSpec spec = small_spec();
  spec.replications = 10;  // one superblock per cell -> 3 tasks
  spec.superblock = 16;
  const std::size_t k = 7;
  std::vector<ShardState> states;
  for (std::size_t i = 0; i < k; ++i) states.push_back(run_shard(spec, i, k));
  const MergeResult merged = merge_shards(states);
  const auto reference = run_in_process(spec);
  for (std::size_t c = 0; c < reference.size(); ++c)
    expect_bit_identical(merged.summaries[c], reference[c]);
}

TEST(DistributedSweep, MergeValidatesCoverageAndIdentity) {
  // Every rejection names its culprits: input positions with their
  // recorded shard/shard_count (MergeError::inputs carries the positions).
  const SweepSpec spec = small_spec();
  std::vector<ShardState> states;
  for (std::size_t i = 0; i < 3; ++i) states.push_back(run_shard(spec, i, 3));

  // Duplicate shard: both positions.
  try {
    (void)merge_shards({states[0], states[1], states[0], states[2]});
    FAIL() << "duplicate shard merged";
  } catch (const MergeError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("input 0 (shard 0/3)"), std::string::npos) << what;
    EXPECT_NE(what.find("input 2 (shard 0/3)"), std::string::npos) << what;
    EXPECT_EQ(e.inputs, (std::vector<std::size_t>{0, 2}));
  }
  // Foreign shard (different seed -> different fingerprint).
  SweepSpec other = spec;
  other.seed = 9;
  try {
    (void)merge_shards({states[0], states[1], run_shard(other, 2, 3)});
    FAIL() << "foreign shard merged";
  } catch (const MergeError& e) {
    EXPECT_NE(std::string(e.what()).find("input 2 (shard 2/3)"),
              std::string::npos)
        << e.what();
    EXPECT_EQ(e.inputs, (std::vector<std::size_t>{0, 2}));
  }
  // Missing shard: the shards the inputs do hold.
  try {
    (void)merge_shards({states[0], states[2]});
    FAIL() << "incomplete shard set merged";
  } catch (const MergeError& e) {
    EXPECT_NE(std::string(e.what()).find("shards 0/3, 2/3"),
              std::string::npos)
        << e.what();
  }
  // Already-merged input.
  const MergeResult merged = merge_shards(states);
  EXPECT_THROW((void)merge_shards({merged_state(merged)}), MergeError);
  // Empty input.
  EXPECT_THROW((void)merge_shards({}), std::invalid_argument);
}

TEST(DistributedSweep, MixedShardCountsMergeWhenCoverageIsExact) {
  // Shards need not come from one K: half the tasks from a K=2 run plus
  // the complementary half from a K=4 run still cover every task once.
  const SweepSpec spec = small_spec();
  const ShardState half = run_shard(spec, 0, 2);
  const ShardState q3 = run_shard(spec, 2, 4);
  const ShardState q4 = run_shard(spec, 3, 4);
  const MergeResult merged = merge_shards({half, q3, q4});
  const auto reference = run_in_process(spec);
  for (std::size_t c = 0; c < reference.size(); ++c)
    expect_bit_identical(merged.summaries[c], reference[c]);
}

TEST(DistributedSweep, MergedStateSummarizesIdentically) {
  const SweepSpec spec = small_spec();
  std::vector<ShardState> states;
  for (std::size_t i = 0; i < 2; ++i) states.push_back(run_shard(spec, i, 2));
  const MergeResult merged = merge_shards(states);

  // Round-trip the merged state through the codec and re-summarize: what
  // divsec_report consumes must equal what merge computed.
  const ShardState out = merged_state(merged);
  const ShardState back = decode_shard_state(encode_shard_state(out));
  const auto summaries = summaries_from_merged(back);
  ASSERT_EQ(summaries.size(), merged.summaries.size());
  for (std::size_t c = 0; c < summaries.size(); ++c)
    expect_bit_identical(summaries[c], merged.summaries[c]);

  // Unmerged shard states are rejected by the report path.
  EXPECT_THROW((void)summaries_from_merged(states[0]), std::invalid_argument);
}

TEST(DistributedSweep, SpecValidation) {
  SweepSpec bad = small_spec();
  bad.preset = "no_such_preset";
  EXPECT_THROW((void)make_meta(bad), std::invalid_argument);
  bad = small_spec();
  bad.threat = "no_such_threat";
  EXPECT_THROW((void)make_meta(bad), std::invalid_argument);
  bad = small_spec();
  bad.policies.clear();
  EXPECT_THROW((void)make_meta(bad), std::invalid_argument);
  bad = small_spec();
  bad.superblock = 12;  // not a multiple of block 8
  EXPECT_THROW((void)make_meta(bad), std::invalid_argument);
}

TEST(DistributedSweep, HorizonIsUnsetOrPositive) {
  // Unset means the campaign default; a set horizon is taken as given or
  // rejected, never silently replaced by the default.
  SweepSpec spec = small_spec();
  EXPECT_EQ(make_meta(spec).horizon_hours, attack::CampaignOptions{}.t_max_hours);
  spec.horizon_hours = 24.0;
  EXPECT_EQ(make_meta(spec).horizon_hours, 24.0);
  EXPECT_EQ(sweep_options(spec).campaign.t_max_hours, 24.0);
  for (const double bad : {0.0, -5.0, std::nan(""), HUGE_VAL}) {
    spec.horizon_hours = bad;
    EXPECT_THROW((void)make_meta(spec), std::invalid_argument) << bad;
  }
}

TEST(StateCodec, RejectsNonPositiveHorizon) {
  // Encode is as lenient as validate_state; decode refuses a horizon no
  // sweep could have run with.
  for (const double bad : {0.0, -5.0, std::nan("")}) {
    ShardState state;
    state.meta = make_meta(small_spec());
    state.meta.horizon_hours = bad;
    EXPECT_THROW((void)decode_shard_state(encode_shard_state(state)),
                 std::runtime_error)
        << bad;
  }
}

TEST(DistributedSweep, ArmsShareOneTopology) {
  // expand_plan generates the structure once: every arm holds a copy of
  // one topology value, the curated scope_cooling monoculture arm too.
  const divers::VariantCatalog catalog = divers::VariantCatalog::standard(2013);
  for (const char* preset :
       {"enterprise256", "scope_cooling", "hub-spoke:nodes=192,sites=6"}) {
    SweepSpec spec;
    spec.preset = preset;
    const core::ScenarioSweepPlan plan = expand_plan(spec, catalog);
    ASSERT_EQ(plan.cell_count(), 3u) << preset;
    const void* shared = plan.cells[0].scenario.topology.identity();
    EXPECT_NE(shared, nullptr) << preset;
    for (const core::ScenarioCell& cell : plan.cells)
      EXPECT_EQ(cell.scenario.topology.identity(), shared) << preset;
  }
}

TEST(DistributedSweep, ThreeArmSweepBuildsOneIndex) {
  const SweepSpec spec = small_spec();
  ASSERT_EQ(spec.policies.size(), 3u);
  const sim::Executor serial(1);
  obs::reset();
  EXPECT_EQ(run_in_process(spec, &serial).size(), 3u);
#if DIVSEC_OBS
  const obs::Snapshot snap = obs::snapshot();
  EXPECT_EQ(snap.counter("core.context.built"), 3u);
  EXPECT_EQ(snap.counter("core.context.reach_builds"), 1u);
#endif
}

}  // namespace
}  // namespace divsec::dist
