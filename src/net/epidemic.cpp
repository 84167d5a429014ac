#include "net/epidemic.h"

#include <algorithm>
#include <stdexcept>

#include "net/reachability_index.h"

namespace divsec::net {

MeanFieldEpidemic::MeanFieldEpidemic(const Topology& topology,
                                     const Firewall& firewall,
                                     const std::vector<Channel>& channels,
                                     const std::vector<NodeId>& seed_nodes,
                                     EpidemicOptions options)
    : MeanFieldEpidemic(ReachabilityIndex(topology, firewall), channels,
                        seed_nodes, options) {}

MeanFieldEpidemic::MeanFieldEpidemic(const ReachabilityIndex& index,
                                     const std::vector<Channel>& channels,
                                     const std::vector<NodeId>& seed_nodes,
                                     EpidemicOptions options)
    : seeds_(seed_nodes), opt_(options) {
  if (!(opt_.beta >= 0.0))
    throw std::invalid_argument("MeanFieldEpidemic: beta must be >= 0");
  if (!(opt_.dt_hours > 0.0))
    throw std::invalid_argument("MeanFieldEpidemic: dt must be > 0");
  if (seeds_.empty())
    throw std::invalid_argument("MeanFieldEpidemic: need at least one seed");
  for (NodeId s : seeds_)
    if (s >= index.node_count())
      throw std::out_of_range("MeanFieldEpidemic: seed out of range");
  auto csr = index.union_in_csr(channels);
  in_off_ = std::move(csr.off);
  in_edge_ = std::move(csr.edge);
  reset();
}

void MeanFieldEpidemic::reset() {
  infected_.assign(in_off_.size() - 1, 0.0);
  next_.assign(infected_.size(), 0.0);
  for (NodeId s : seeds_) infected_[s] = 1.0;
  time_ = 0.0;
}

void MeanFieldEpidemic::advance(double hours) {
  if (hours < 0.0) throw std::invalid_argument("advance: negative duration");
  const double t_end = time_ + hours;
  while (time_ < t_end) {
    // Clamp the final step to the remaining interval: a horizon that is
    // not a multiple of dt must not be overshot, and the clock must land
    // on t_end exactly (no accumulated per-step rounding drift).
    const double h = std::min(opt_.dt_hours, t_end - time_);
    for (NodeId i = 0; i < infected_.size(); ++i) {
      double pressure = 0.0;
      for (std::size_t e = in_off_[i]; e < in_off_[i + 1]; ++e)
        pressure += infected_[in_edge_[e]];
      const double di = (1.0 - infected_[i]) * opt_.beta * pressure;
      next_[i] = std::clamp(infected_[i] + h * di, 0.0, 1.0);
    }
    infected_.swap(next_);
    time_ += h;
  }
  time_ = t_end;
}

double MeanFieldEpidemic::compromised_ratio() const noexcept {
  double s = 0.0;
  for (double v : infected_) s += v;
  return infected_.empty() ? 0.0 : s / static_cast<double>(infected_.size());
}

std::vector<double> MeanFieldEpidemic::ratio_curve(
    const std::vector<double>& grid_hours) {
  for (std::size_t i = 1; i < grid_hours.size(); ++i)
    if (grid_hours[i] < grid_hours[i - 1])
      throw std::invalid_argument("ratio_curve: grid must be non-decreasing");
  reset();
  std::vector<double> out;
  out.reserve(grid_hours.size());
  for (double t : grid_hours) {
    advance(t - time_);
    out.push_back(compromised_ratio());
  }
  return out;
}

}  // namespace divsec::net
