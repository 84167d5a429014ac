// codec_fixtures.h — the shard-state fixtures shared by the codec tests
// (test_dist_sweep, test_state_codec): a small sweep spec, deterministic
// accumulators, a state that fills every v4 section, and a re-signer for
// tampered bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/indicator_accumulator.h"
#include "dist/fnv.h"
#include "dist/state_codec.h"
#include "dist/sweep.h"
#include "stats/rng.h"

namespace divsec::dist::fixtures {

/// A spec small enough for CI but spanning several superblocks per cell,
/// so the cross-process merge exercises the real multi-partial fold.
inline SweepSpec small_spec() {
  SweepSpec spec;
  spec.preset = "plant_small";
  spec.seed = 4242;
  spec.replications = 50;
  spec.replication_block = 8;
  spec.superblock = 16;  // ceil(50/16) = 4 superblocks per cell
  return spec;
}

inline core::IndicatorAccumulator filled_accumulator(std::uint64_t seed,
                                                     std::size_t n) {
  core::IndicatorAccumulator acc(100.0, 16);
  stats::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    core::IndicatorSample s;
    s.tta = rng.uniform(0.0, 120.0);
    s.tta_censored = s.tta >= 100.0;
    if (s.tta_censored) s.tta = 100.0;
    s.ttsf = rng.uniform(0.0, 100.0);
    s.ttsf_censored = rng.uniform() < 0.25;
    s.attack_succeeded = !s.tta_censored;
    s.final_ratio = rng.uniform();
    acc.add(s);
  }
  return acc;
}

/// A state exercising every v4 section: non-contiguous tasks, cost,
/// adaptive achieved counts, round log, termination rounds.
inline ShardState rich_state() {
  ShardState state;
  state.meta = make_meta(small_spec());
  state.meta.shard = 0;
  state.meta.shard_count = 1;
  state.meta.merged = true;
  state.meta.threads = 1;  // make_meta records the host's default count
  state.meta.achieved = {50, 16, 50};
  state.tasks = {0, 1, 2};
  state.partials.push_back(filled_accumulator(1, 100).state());
  state.partials.push_back(filled_accumulator(2, 31).state());
  state.partials.push_back(filled_accumulator(3, 64).state());
  state.cost.cells = {{100, 0.1 + 0.2}, {16, 0.5}, {31, 1.0 / 3.0}};
  state.rounds = {{1, 3, 3, 48, 10.5, 0.25}, {2, 1, 1, 16, 4.0, 0.125}};
  state.cell_rounds = {2, 1, 2};
  return state;
}

/// Re-sign a (possibly tampered) prefix with a valid trailing checksum,
/// so decode gets past the integrity check and the structural validation
/// under test is what must reject the bytes.
inline std::string signed_bytes(std::string prefix) {
  prefix.resize(prefix.size() + 8);
  const std::uint64_t sum =
      fnv1a(std::string_view(prefix).substr(0, prefix.size() - 8));
  for (int i = 0; i < 8; ++i)
    prefix[prefix.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xFF);
  return prefix;
}

}  // namespace divsec::dist::fixtures
