// counts.h — exact counts read from divsec's obs:: registry.
//
// The registry is process-cumulative, so the benchmark reads a snapshot
// before and after a call and keeps the difference. Every value is an
// integer sum of relaxed striped adds, exact once the call has returned.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/metrics.h"

namespace perfbench {

struct Counts {
  std::uint64_t runs = 0;             // campaign.runs (replications)
  std::uint64_t events = 0;           // campaign.events.executed
  std::uint64_t rng_words = 0;        // Σ campaign.rng_words.*
  std::uint64_t scan_candidates = 0;  // campaign.scan.candidates
  std::uint64_t scan_accepted = 0;    // campaign.scan.accepted
  std::uint64_t reach_builds = 0;     // core.context.reach_builds
  std::uint64_t contexts_built = 0;   // core.context.built
  std::uint64_t idle_ns = 0;          // sim.executor.idle_ns
  std::uint64_t encode_ns = 0;        // codec.encode.ns
  std::uint64_t decode_ns = 0;        // codec.decode.ns

  [[nodiscard]] static Counts read() {
    const divsec::obs::Snapshot snap = divsec::obs::snapshot();
    Counts c;
    c.runs = snap.counter("campaign.runs");
    c.events = snap.counter("campaign.events.executed");
    for (const auto& v : snap.counters)
      if (std::string_view(v.name).starts_with("campaign.rng_words."))
        c.rng_words += v.value;
    c.scan_candidates = snap.counter("campaign.scan.candidates");
    c.scan_accepted = snap.counter("campaign.scan.accepted");
    c.reach_builds = snap.counter("core.context.reach_builds");
    c.contexts_built = snap.counter("core.context.built");
    c.idle_ns = snap.counter("sim.executor.idle_ns");
    c.encode_ns = snap.counter("codec.encode.ns");
    c.decode_ns = snap.counter("codec.decode.ns");
    return c;
  }

  [[nodiscard]] Counts operator-(const Counts& before) const {
    Counts d;
    d.runs = runs - before.runs;
    d.events = events - before.events;
    d.rng_words = rng_words - before.rng_words;
    d.scan_candidates = scan_candidates - before.scan_candidates;
    d.scan_accepted = scan_accepted - before.scan_accepted;
    d.reach_builds = reach_builds - before.reach_builds;
    d.contexts_built = contexts_built - before.contexts_built;
    d.idle_ns = idle_ns - before.idle_ns;
    d.encode_ns = encode_ns - before.encode_ns;
    d.decode_ns = decode_ns - before.decode_ns;
    return d;
  }
};

}  // namespace perfbench
