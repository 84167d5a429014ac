// step_curve_reference.h — the reference binning of a campaign step
// curve onto the ratio-curve grid.
//
// The measurement engine never builds a replication's step curve: the
// kernel writes its compromised count into the curve bins at each
// compromise (attack::CampaignSimulator::run(rng, bins)). This is the
// rule those bins must equal, applied to the step curve that the public
// run() returns.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>

namespace divsec::core::reference {

/// Sample one replication's step curve (time-ascending (time, ratio)
/// steps) at ascending bin upper `edges`: counts[k] =
/// llround(ratio × scale) of the last step at time <= edges[k], 0 before
/// the first step. counts.size() must equal edges.size().
inline void sample_step_counts(std::span<const std::pair<double, double>> steps,
                               std::span<const double> edges, double scale,
                               std::span<std::uint32_t> counts) {
  std::size_t k = 0;
  std::uint32_t count = 0;  // the implicit c(0) = 0 before any step
  for (const auto& [t, ratio] : steps) {
    // Edges before this step read the previous count; an edge equal to
    // t reads this step's.
    while (k < edges.size() && edges[k] < t) counts[k++] = count;
    if (k == edges.size()) return;  // the rest of the curve is past the grid
    count = static_cast<std::uint32_t>(std::llround(ratio * scale));
  }
  std::fill(counts.begin() + static_cast<std::ptrdiff_t>(k), counts.end(),
            count);
}

}  // namespace divsec::core::reference
