// Golden result digests: the FNV-1a of the measurement-CSV bytes of a
// small sweep corpus, pinned at 1 and 4 threads.
//
// Every other byte-diff in the suite compares divsec with itself (thread
// counts, shard cuts, replay, obs on/off). These digests compare it with
// a fixed past: any change to the draw order, the event model, the fold
// sequence or the CSV rendering moves at least one of them, and must
// update them on purpose in the change that makes it. Each entry mirrors
// a `divsec_sweep run` invocation (noted next to it), so a failing digest
// can be reproduced from the CLI and diffed by hand.
//
// The corpus covers the paper plant, all four variant policies, one spec
// per topology family, a 4096-node fleet, and a tuned threat whose 3-task sweep has fewer
// tasks than the 4-thread executor has threads (the sub-task parallel
// path of the reducer). A second corpus pins the adaptive sweep
// (`divsec_sweep adapt`): its CSV digest and the per-cell achieved
// counts its stopping rule settled on. A third pins the configuration
// path (`divsec_report`): the DoE table of the SCoPE description under
// both engines, the only digests of the staged-SAN engine.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "core/report.h"
#include "dist/adaptive.h"
#include "dist/fnv.h"
#include "dist/sweep.h"
#include "scenario/family_spec.h"
#include "sim/executor.h"

namespace divsec {
namespace {

using scenario::VariantPolicy;

struct Golden {
  const char* name;
  dist::SweepSpec spec;
  std::uint64_t digest;
};

dist::SweepSpec spec_of(std::string preset, std::size_t replications,
                        std::size_t superblock) {
  dist::SweepSpec s;
  s.preset = std::move(preset);
  s.replications = replications;
  s.superblock = superblock;
  return s;
}

/// --family SPEC canonicalizes through FamilySpec before it becomes the
/// preset name; mirror that so the digest matches the CLI's CSV.
dist::SweepSpec family(const char* text) {
  return spec_of(scenario::FamilySpec::parse(text).canonical(), 300, 256);
}

std::vector<Golden> corpus() {
  std::vector<Golden> g;
  // run --preset scope_cooling --replications 2000 --superblock 512
  g.push_back({"scope_cooling", spec_of("scope_cooling", 2000, 512),
               0xc1dbd5d49fb8dbfcULL});
  // run --preset enterprise64 --policies mono,zone,random,rotation
  //     --replications 600 --superblock 256
  {
    dist::SweepSpec s = spec_of("enterprise64", 600, 256);
    s.policies = {VariantPolicy::kMonoculture, VariantPolicy::kZoneStratified,
                  VariantPolicy::kRandomPerNode,
                  VariantPolicy::kBalancedRotation};
    g.push_back({"enterprise64_4policies", s, 0x16205b34f7fec8ddULL});
  }
  // run --family F --replications 300 --superblock 256
  g.push_back({"purdue_deep", family("purdue-deep:nodes=96,depth=3"),
               0xf72ca9b5b5ec1c14ULL});
  g.push_back({"mesh_flat", family("mesh-flat:nodes=96"), 0xdec581c902899fe7ULL});
  g.push_back({"hub_spoke", family("hub-spoke:nodes=96"), 0xb4ce8852836f3971ULL});
  g.push_back({"brownfield", family("brownfield:nodes=96"),
               0x9fcd1c0f86d6befdULL});
  // run --preset enterprise4096 --replications 512 --superblock 256
  // (a fleet whose USB target rows hold >1000 victims each)
  g.push_back({"enterprise4096", spec_of("enterprise4096", 512, 256),
               0x64f87f908fc7ccd0ULL});
  // run --threat stuxnet:scan=2,dwell=0.5 --replications 1
  {
    dist::SweepSpec s;
    s.threat = "stuxnet:scan=2,dwell=0.5";
    s.replications = 1;
    g.push_back({"tuned_threat_1rep", s, 0x1467ffffacb85699ULL});
  }
  return g;
}

struct AdaptiveGolden {
  const char* name;
  dist::SweepSpec spec;
  double relative_precision;
  double absolute_precision;
  std::vector<std::uint64_t> achieved;
  std::uint64_t digest;
};

std::vector<AdaptiveGolden> adaptive_corpus() {
  std::vector<AdaptiveGolden> g;
  // adapt --preset enterprise256 --replications 24576 --block 256
  //       --superblock 512 --precision 0.01 --abs-floor 0.002
  {
    dist::SweepSpec s = spec_of("enterprise256", 24576, 512);
    s.replication_block = 256;
    g.push_back({"enterprise256", s, 0.01, 0.002, {4096, 2048, 3072},
                 0xa1e756f2673a1237ULL});
  }
  // adapt --preset plant_small --seed 4242 --replications 256 --block 8
  //       --superblock 32 --precision 0.10 --abs-floor 0.02
  {
    dist::SweepSpec s = spec_of("plant_small", 256, 32);
    s.seed = 4242;
    s.replication_block = 8;
    g.push_back({"plant_small", s, 0.10, 0.02, {192, 256, 64},
                 0x2a274bc4a87fa532ULL});
  }
  return g;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

class GoldenDigests : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenDigests, MeasurementCsvMatchesPinnedDigest) {
  const sim::Executor ex{GetParam()};
  for (const Golden& g : corpus()) {
    SCOPED_TRACE(g.name);
    const std::string csv = dist::sweep_csv(dist::make_meta(g.spec),
                                            dist::run_in_process(g.spec, &ex));
    EXPECT_EQ(hex(dist::fnv1a(csv)), hex(g.digest));
  }
}

TEST_P(GoldenDigests, AdaptiveCsvAndAchievedCountsMatchPinned) {
  const sim::Executor ex{GetParam()};
  for (const AdaptiveGolden& g : adaptive_corpus()) {
    SCOPED_TRACE(g.name);
    core::AdaptiveOptions options;
    options.relative_precision = g.relative_precision;
    options.absolute_precision = g.absolute_precision;
    const dist::MergeResult r = dist::run_adaptive(g.spec, options, &ex);
    EXPECT_EQ(r.meta.achieved, g.achieved);
    EXPECT_EQ(hex(dist::fnv1a(dist::sweep_csv(r.meta, r.summaries))),
              hex(g.digest));
  }
}

TEST_P(GoldenDigests, ConfigurationTableCsvMatchesPinned) {
  const sim::Executor ex{GetParam()};
  const divers::VariantCatalog catalog = divers::VariantCatalog::standard(2013);
  const core::SystemDescription desc = core::make_scope_description(catalog);
  // divsec_report --seed 2013 --replications 300 --engine E
  // (its E_measurements.csv)
  const std::pair<core::Engine, std::uint64_t> engines[] = {
      {core::Engine::kStagedSan, 0x1efa189a282c8700ULL},
      {core::Engine::kCampaign, 0xe7ef0285b540190fULL}};
  for (const auto& [engine, digest] : engines) {
    SCOPED_TRACE(engine == core::Engine::kStagedSan ? "san" : "campaign");
    core::PipelineOptions po;
    po.measurement.engine = engine;
    po.measurement.replications = 300;
    po.measurement.seed = 2013;
    po.measurement.executor = &ex;
    const core::Pipeline pipeline(desc, attack::ThreatProfile::stuxnet(), po);
    const auto result = pipeline.run({"os.control", "plc.firmware", "firewall"}, 0);
    EXPECT_EQ(hex(dist::fnv1a(core::measurement_csv(result.table))), hex(digest));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, GoldenDigests, ::testing::Values(1u, 4u),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace divsec
