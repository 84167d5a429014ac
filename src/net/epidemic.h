// epidemic.h — mean-field worm-propagation baseline.
//
// A deterministic SI (susceptible-infected) approximation of malware
// spread over the reachability graph: the classical comparison model for
// the campaign simulator's compromised-ratio curves. Where the campaign
// plays individual exploits, the mean-field model only sees an effective
// pairwise infection rate beta over the directed reachability edges —
// exactly the kind of baseline a reviewer would ask the paper's c(t)
// curves to be compared against.
//
//   dI_i/dt = (1 - I_i) * beta * sum_{j -> i} I_j
//
// integrated with forward Euler over a flat CSR adjacency, so the same
// loop serves the paper's 11-node plant and a generated enterprise fleet.
// The adjacency comes from a ReachabilityIndex — build it once per
// scenario and share it with the campaign simulator instead of indexing
// the topology twice. The union adjacency itself is as large as the
// relation: with USB among the channels, every exposed node has every
// other exposed node as an in-neighbour.
#pragma once

#include <vector>

#include "net/firewall.h"
#include "net/topology.h"

namespace divsec::net {

class ReachabilityIndex;

struct EpidemicOptions {
  /// Effective infections per (infected neighbor, hour).
  double beta = 0.05;
  double dt_hours = 0.1;
};

class MeanFieldEpidemic {
 public:
  /// `channels` defines the directed reachability edges (j -> i when
  /// net::can_reach(j, i, c) for any c of `channels`, see
  /// ReachabilityIndex::union_in_csr); `seed_nodes` start at infection
  /// probability 1.
  /// Builds a throwaway ReachabilityIndex internally — prefer the index
  /// overload when the caller already has one for the scenario.
  MeanFieldEpidemic(const Topology& topology, const Firewall& firewall,
                    const std::vector<Channel>& channels,
                    const std::vector<NodeId>& seed_nodes,
                    EpidemicOptions options = {});

  /// Shares a precomputed per-scenario index with the campaign layer.
  MeanFieldEpidemic(const ReachabilityIndex& index,
                    const std::vector<Channel>& channels,
                    const std::vector<NodeId>& seed_nodes,
                    EpidemicOptions options = {});

  /// Advance the ODE by `hours`. The final Euler step is clamped to the
  /// remaining interval, so the model lands exactly on the requested
  /// horizon even when `hours` is not a multiple of dt.
  void advance(double hours);

  /// P[node i infected] at the current time.
  [[nodiscard]] double infection_probability(NodeId i) const;

  /// Mean compromised ratio: average infection probability.
  [[nodiscard]] double compromised_ratio() const noexcept;

  [[nodiscard]] double now_hours() const noexcept { return time_; }

  /// Convenience: the full ratio curve sampled on a time grid (resets and
  /// integrates from zero).
  [[nodiscard]] std::vector<double> ratio_curve(const std::vector<double>& grid_hours);

 private:
  void reset();
  // In-edges j -> i in CSR form: the sources of node i occupy
  // in_edge_[in_off_[i] .. in_off_[i + 1]).
  std::vector<std::size_t> in_off_;
  std::vector<NodeId> in_edge_;
  std::vector<NodeId> seeds_;
  std::vector<double> infected_;  // I_i in [0,1]
  std::vector<double> next_;      // Euler scratch row
  EpidemicOptions opt_;
  double time_ = 0.0;
};

}  // namespace divsec::net
