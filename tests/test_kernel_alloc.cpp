// The campaign kernel's per-replication cost must not scale with fleet
// size: a run borrows its per-node state and event pools from a
// per-thread scratch that is restored through a touched-node list, so
// once warm it makes no allocation proportional to node_count. On the
// measurement engine's path — the kernel filling the sample's curve
// bins in place, plus the per-block telemetry flush — a warm
// replication makes no allocation at all. Nor may
// the reachability index a fleet's runs share grow faster than the fleet:
// its build allocates O(nodes + links) bytes, not an all-pairs relation,
// and a context built over a shared index copies none of its scenario.
// Nor may a sweep's reduction hold a cell's accumulator twice, nor may
// the streaming path's heap grow with the replication count. This
// binary replaces the global operator new/delete (backed by malloc/free)
// to count the allocations made while a window is armed, and the live
// and peak heap bytes — which is why it is its own executable, and why
// it stays out of sanitizer builds that intercept operator new
// themselves.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

#include "attack/campaign.h"
#include "core/measurement.h"
#include "core/ratio_curve.h"
#include "net/reachability_index.h"
#include "scenario/presets.h"
#include "sim/executor.h"
#include "sim/shard_plan.h"
#include "stats/rng.h"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_threshold{0};
std::atomic<std::size_t> g_large{0};    // armed allocations >= threshold
std::atomic<std::size_t> g_largest{0};  // biggest armed allocation
std::atomic<std::size_t> g_bytes{0};    // sum of all armed allocations
std::atomic<std::size_t> g_count{0};    // number of armed allocations
std::atomic<std::size_t> g_live{0};     // requested bytes live now, always tracked
std::atomic<std::size_t> g_peak{0};     // high-water mark of g_live while armed

// Each block carries its requested size in a header, so live bytes are
// the bytes the program asked for. malloc_usable_size would add the
// slack of whichever chunk malloc split to serve a request, and that
// moves with heap layout, not with the program.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void track(std::size_t size) {
  const std::size_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  if (g_armed.load(std::memory_order_relaxed)) {
    std::size_t seen = g_peak.load(std::memory_order_relaxed);
    while (live > seen &&
           !g_peak.compare_exchange_weak(seen, live, std::memory_order_relaxed)) {
    }
  }
}

void untrack_free(void* p) {
  if (!p) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(*static_cast<std::size_t*>(block), std::memory_order_relaxed);
  std::free(block);
}

void* counted_alloc(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (g_armed.load(std::memory_order_relaxed) &&
      size >= g_threshold.load(std::memory_order_relaxed)) {
    g_large.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest.compare_exchange_weak(seen, size, std::memory_order_relaxed)) {
    }
  }
  void* block = std::malloc(kHeader + size);
  if (!block) return nullptr;
  *static_cast<std::size_t*>(block) = size;
  track(size);
  return static_cast<char*>(block) + kHeader;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { untrack_free(p); }
void operator delete[](void* p) noexcept { untrack_free(p); }
void operator delete(void* p, std::size_t) noexcept { untrack_free(p); }
void operator delete[](void* p, std::size_t) noexcept { untrack_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { untrack_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { untrack_free(p); }

namespace divsec {
namespace {

TEST(KernelAlloc, SteadyStateRunsMakeNoNodeCountSizedAllocation) {
  const auto cat = divers::VariantCatalog::standard(2013);
  const auto made = scenario::make_preset("enterprise4096", cat, 17,
                                          scenario::VariantPolicy::kMonoculture);
  const attack::CampaignSimulator sim(made.scenario,
                                      attack::ThreatProfile::stuxnet(), cat);
  const std::size_t nodes = made.scenario.topology.node_count();
  ASSERT_EQ(nodes, 4096u);

  {  // Warm-up: grows this thread's scratch and registers the counters.
    stats::Rng rng(2013, 0);
    (void)sim.run(rng);
  }

  g_threshold = nodes;
  g_large = 0;
  g_largest = 0;
  std::size_t events = 0;
  g_armed = true;
  for (std::uint64_t rep = 1; rep <= 256; ++rep) {
    stats::Rng rng(2013, rep);
    events += sim.run(rng).events_executed;
  }
  g_armed = false;

  // The runs did real work (the window is not vacuous) ...
  EXPECT_GT(events, 256u);
  // ... and none of it allocated a buffer the size of the fleet.
  EXPECT_EQ(g_large.load(), 0u)
      << "largest allocation in the window: " << g_largest.load()
      << " bytes (node_count = " << nodes << ")";
}

TEST(KernelAlloc, WarmEnginePathReplicationsAllocateNothing) {
  const auto cat = divers::VariantCatalog::standard(2013);
  const auto made = scenario::make_preset("enterprise4096", cat, 17,
                                          scenario::VariantPolicy::kRandomPerNode);
  const attack::CampaignSimulator sim(made.scenario,
                                      attack::ThreatProfile::stuxnet(), cat);
  ASSERT_EQ(made.scenario.topology.node_count(), 4096u);
  const double horizon = attack::CampaignOptions{}.t_max_hours;
  const std::vector<double> edges = core::curve_bin_edges(horizon, 64);
  core::IndicatorSample s;
  std::size_t compromised = 0;
  // One block of replications the way the engine runs them. Warm means
  // this thread has run these replications once: the sample's bins and
  // the scratch pools have reached the sizes they need, and the
  // telemetry handles are registered.
  const auto block = [&] {
    compromised = 0;
    for (std::uint64_t rep = 0; rep < 256; ++rep) {
      core::campaign_sample(sim, horizon, edges, stats::Rng(2013, rep), s);
      if (s.final_ratio > 0.0) ++compromised;
    }
    attack::CampaignSimulator::flush_telemetry();
  };
  block();

  g_count = 0;
  g_bytes = 0;
  g_armed = true;
  block();
  g_armed = false;

  // The window did real work ...
  EXPECT_GT(compromised, 16u);
  // ... and allocated nothing: no step curve, no result vector, no pool.
  EXPECT_EQ(g_count.load(), 0u) << g_bytes.load() << " bytes";
}

TEST(KernelAlloc, ContextOverASharedIndexHoldsNoScenarioCopy) {
  // A sweep's arms share their topology and index, so a campaign context
  // should cost its per-node tables, not another copy of the cell's
  // scenario (the variant assignment alone is ~48 B/node).
  const auto cat = divers::VariantCatalog::standard(2013);
  const auto made = scenario::make_preset("enterprise4096", cat, 17,
                                          scenario::VariantPolicy::kRandomPerNode);
  const std::size_t nodes = made.scenario.topology.node_count();
  ASSERT_EQ(nodes, 4096u);
  const auto index = std::make_shared<const net::ReachabilityIndex>(
      made.scenario.topology, made.scenario.firewall);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();

  g_bytes = 0;
  g_armed = true;
  const attack::CampaignSimulator sim(made.scenario, stuxnet, cat, {}, {}, index);
  g_armed = false;
  EXPECT_EQ(&sim.reachability(), index.get());

  // The 12-byte node rows, the entry and target lists and the
  // per-variant tables fit well inside 24 B/node.
  EXPECT_LE(g_bytes.load(), 24 * nodes) << g_bytes.load() << " bytes";
}

TEST(KernelAlloc, FleetPlanHoldsFewBytesPerNode) {
  // A sweep's arms share one topology and each holds its own variant
  // assignment and DoE grouping, so the expanded plan is the fleet's
  // resident setup. Read as live bytes per node over three arms: 462
  // B/node with 64-byte assignments and a string-keyed name index, 233
  // B/node with 8-byte assignments and an id-only name table.
  const auto cat = divers::VariantCatalog::standard(2013);
  const scenario::VariantPolicy policies[] = {scenario::VariantPolicy::kMonoculture,
                                              scenario::VariantPolicy::kZoneStratified,
                                              scenario::VariantPolicy::kRandomPerNode};
  const std::size_t base = g_live.load();
  const auto arms = scenario::make_preset_arms("enterprise4096", cat, 2013, policies);
  const std::size_t held = g_live.load() - base;
  ASSERT_EQ(arms.size(), 3u);
  const std::size_t nodes = arms.front().scenario.topology.node_count();
  ASSERT_EQ(nodes, 4096u);
  EXPECT_LE(held, 320 * nodes) << held / nodes << " B/node";
}

TEST(KernelAlloc, ReachabilityIndexBuildAllocatesLinearBytes) {
  const auto cat = divers::VariantCatalog::standard(2013);
  const auto made = scenario::make_preset("enterprise4096", cat, 17,
                                          scenario::VariantPolicy::kMonoculture);
  const net::Topology& topo = made.scenario.topology;
  ASSERT_EQ(topo.node_count(), 4096u);

  g_bytes = 0;
  g_armed = true;
  const net::ReachabilityIndex index(topo, made.scenario.firewall);
  g_armed = false;
  EXPECT_EQ(index.node_count(), topo.node_count());

  // Every byte the build allocated, temporaries included, against a
  // budget linear in the structure (~2.5 MB here; all-pairs bit rows
  // alone would be 2 MiB per channel).
  const std::size_t budget = 256 * (topo.node_count() + topo.link_count());
  EXPECT_LE(g_bytes.load(), budget)
      << topo.node_count() << " nodes, " << topo.link_count() << " links";
}

TEST(KernelAlloc, SweepReductionHoldsEachCellAccumulatorOnce) {
  // bench_e5's residency phase at 2000 cells: one superblock task per
  // cell, so every cell's result is an adopted partial. Adopting by copy
  // held each cell's accumulator twice at the peak; by move, the peak is
  // one accumulator plus one summary per cell.
  constexpr std::size_t kCells = 2000;
  const auto cat = divers::VariantCatalog::standard(2013);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  const auto fleet = scenario::make_preset("enterprise128", cat, 2013,
                                           scenario::VariantPolicy::kMonoculture);
  core::ScenarioSweepPlan plan;
  plan.cells.reserve(kCells);
  for (std::size_t c = 0; c < kCells; ++c)
    plan.cells.push_back({fleet.scenario, 2013 + c});
  const sim::Executor serial{1};
  core::MeasurementOptions mo;
  mo.replications = 4;
  mo.campaign.t_max_hours = 24.0;
  mo.executor = &serial;
  const core::MeasurementEngine engine(cat, stuxnet, mo);

  // One cell's partial, as the reduction receives it: the live bytes a
  // warm one-task call leaves behind.
  const sim::ShardPlan shard = engine.shard_plan(kCells);
  ASSERT_EQ(shard.task_count(), kCells);
  const std::uint64_t first[] = {0};
  (void)engine.measure_scenario_tasks(plan, shard, first);
  std::size_t accumulator_bytes = 0;
  {
    const std::size_t before = g_live.load();
    const auto one = engine.measure_scenario_tasks(plan, shard, first);
    accumulator_bytes = g_live.load() - before;
  }

  const std::size_t base = g_live.load();
  g_peak = base;
  g_armed = true;
  const auto summaries = engine.measure_scenarios(plan);
  g_armed = false;
  const std::size_t peak = g_peak.load() - base;

  ASSERT_EQ(summaries.size(), kCells);
  EXPECT_GT(accumulator_bytes, 0u);
  // At most 1.5 accumulators' bytes per cell (measured: 1.26 by move,
  // 2.00 by copy).
  EXPECT_LE(peak, 3 * kCells * accumulator_bytes / 2)
      << "peak " << peak << " B = "
      << static_cast<double>(peak) / static_cast<double>(kCells * accumulator_bytes)
      << " accumulators of " << accumulator_bytes << " B per cell";
}

class StreamingHeap : public ::testing::TestWithParam<core::Engine> {};

TEST_P(StreamingHeap, PeakIsFlatInReplicationsWhileTheVisitorPathGrows) {
  // A 2-cell sweep at R and 8R replications, both within one superblock,
  // on one thread. Without a visitor the engine folds each block as it
  // finishes, so its peak live heap cannot grow with R: it may differ by
  // kSlack, a t-digest's centroid buffers settling. A visitor makes the
  // engine keep the cells x reps sample matrix on top of that, so the
  // visitor path outgrows the streaming path by at least cells x 7R
  // samples.
  constexpr std::size_t kR = 1024;
  constexpr std::size_t kSlack = 4096;
  const auto cat = divers::VariantCatalog::standard(2013);
  const attack::ThreatProfile stuxnet = attack::ThreatProfile::stuxnet();
  const auto plant = scenario::make_preset("scope_cooling", cat, 17,
                                           scenario::VariantPolicy::kMonoculture);
  core::ScenarioSweepPlan plan;
  plan.cells.push_back({plant.scenario, 2013});
  plan.cells.push_back({plant.scenario, 2014});
  const sim::Executor serial{1};

  // Peak live bytes of one warm measure_scenarios call, over the live
  // bytes before it.
  const auto peak_of = [&](std::size_t reps, bool visit) {
    core::MeasurementOptions mo;
    mo.engine = GetParam();
    mo.replications = reps;
    mo.executor = &serial;
    const core::MeasurementEngine engine(cat, stuxnet, mo);
    EXPECT_EQ(engine.shard_plan(1).task_count(), 1u) << reps << " reps";
    std::size_t visited = 0;
    const core::MeasurementEngine::CellVisitor visitor =
        [&visited](std::size_t, std::span<const core::IndicatorSample> s) {
          visited += s.size();
        };
    (void)engine.measure_scenarios(plan);  // warm: counters, scratch pools
    const std::size_t base = g_live.load();
    g_peak = base;
    g_armed = true;
    (void)engine.measure_scenarios(plan, visit ? visitor : nullptr);
    g_armed = false;
    EXPECT_EQ(visited, visit ? plan.cell_count() * reps : 0u);
    return static_cast<std::ptrdiff_t>(g_peak.load() - base);
  };
  const std::ptrdiff_t stream_growth = peak_of(8 * kR, false) - peak_of(kR, false);
  const std::ptrdiff_t visit_growth = peak_of(8 * kR, true) - peak_of(kR, true);

  EXPECT_LE(std::abs(stream_growth), static_cast<std::ptrdiff_t>(kSlack));
  const std::size_t matrix_growth =
      plan.cell_count() * 7 * kR * sizeof(core::IndicatorSample);
  EXPECT_GE(visit_growth - stream_growth,
            static_cast<std::ptrdiff_t>(matrix_growth))
      << "visitor path grew " << visit_growth << " B, streaming path "
      << stream_growth << " B";
}

INSTANTIATE_TEST_SUITE_P(Engines, StreamingHeap,
                         ::testing::Values(core::Engine::kCampaign,
                                           core::Engine::kStagedSan),
                         [](const auto& info) {
                           return info.param == core::Engine::kCampaign
                                      ? "campaign"
                                      : "staged_san";
                         });

}  // namespace
}  // namespace divsec
