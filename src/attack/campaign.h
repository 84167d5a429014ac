// campaign.h — network-level attack campaign simulation.
//
// Where san_model.h abstracts the whole system into one staged token,
// the campaign simulator plays the attack out node by node over the real
// topology: delivery through entry channels, per-node activation and
// privilege escalation (success probabilities derived from each node's
// deployed variants), worm-style lateral movement constrained by the
// firewall policy, PLC payload delivery from engineering/SCADA footholds,
// slow physical sabotage, and two detection channels (host IDS vs plant
// alarms, the latter suppressed by Stuxnet-style monitoring spoofing).
//
// It produces the paper's three indicators directly:
//   * Time-To-Attack            — sabotage completed,
//   * Time-To-Security-Failure  — first perceived manifestation,
//   * compromised ratio c(t)    — owned nodes over time, sampled at the
//                                 caller's bin edges.
//
// The simulator is built to run on generated enterprise fleets, not just
// the paper's 11-node plant: construction precomputes a per-scenario
// ReachabilityIndex and one packed 12-byte row per node (role flags,
// OS / PLC-firmware / protocol variant indices, 32-bit scan and tunnel
// weights), next to tiny per-variant tables of exploit success
// probabilities and delay rates. So an event touches one row per node it
// reads, and a per-cell build copies bytes per node instead of walking
// the VariantCatalog. Of the scenario itself the simulator keeps only the
// entry and target lists; the topology, firewall and variant assignment
// are read while the tables are built and never again. Each run()
// schedules the model's recurring Poisson processes as exact
// superpositions (worm scanning at rate lambda*R(t) over R roots,
// host-IDS first passage over the activated pool, and so on) next to a
// small heap of per-node retry events. No string labels,
// no per-node scans, no per-event catalog or firewall walks, no queue
// that grows with fleet compromise. The precomputed state is read-only,
// so one simulator serves any number of concurrent replications. A run's
// own mutable state (per-node state, event heap, membership pools) lives
// in a per-thread scratch that each run hands back clean by restoring
// only the nodes it touched. The unowned-target pool is never copied
// per run: it reads the tables' immutable target list through a sparse
// override array, and a capture swap-removes by overriding one position,
// which the run restores on exit. So a replication costs O(nodes and
// targets touched), not O(node_count) or O(target count), and allocates
// no fleet-sized buffer once warm.
//
// c(t) leaves the kernel through one per-compromise hook, which writes
// the compromised count straight into the caller's curve bins
// (run(rng, bins)), so no curve is kept and a warm run allocates
// nothing. run(rng) passes no bins and reports only the final counts.
// Telemetry (runs, events per kind, scan
// thinning, RNG words per class) is tallied in plain per-thread counters
// in the same scratch and published to the obs:: registry by
// flush_telemetry(): run() flushes before it returns, and the engine
// flushes once per replication block, so registry totals are exact
// whenever run() or a measurement call returns.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "attack/threat.h"
#include "divers/variants.h"
#include "net/firewall.h"
#include "net/topology.h"
#include "stats/rng.h"

namespace divsec::net {
class ReachabilityIndex;
}

namespace divsec::attack {

/// Variant assignment for the software running on one node. Indices refer
/// to VariantCatalog entries of the respective kind, one byte each: a
/// catalog holds at most divers::kMaxVariantsPerKind (256) variants of a
/// kind, so every index it hands out fits. Two bytes of OS and protocol
/// plus three 2-byte optional slots make 8 bytes per node, which is what
/// each arm of a sweep holds per node for its assignment. Neither engine
/// reads the HMI or historian slot: only Scenario::validate checks them,
/// so they stay validated DoE levels with no effect on a measurement.
struct NodeSoftware {
  std::uint8_t os = 0;
  std::uint8_t protocol = 0;
  std::optional<std::uint8_t> plc_firmware;  // PLC nodes
  std::optional<std::uint8_t> hmi;           // HMI nodes
  std::optional<std::uint8_t> historian;     // historian nodes
};

static_assert(sizeof(NodeSoftware) == 8, "a node's variant assignment is 8 bytes");

/// A concrete system under attack: topology + policy + deployed variants.
struct Scenario {
  net::Topology topology;
  net::Firewall firewall;
  std::size_t firewall_variant = 0;  // zone firewall's firmware variant
  std::vector<NodeSoftware> software;  // one entry per node
  std::vector<net::NodeId> entry_nodes;  // where initial delivery can land
  std::vector<net::NodeId> target_plcs;  // sabotage targets

  void validate(const divers::VariantCatalog& catalog) const;
};

enum class NodeState : std::uint8_t { kClean, kDelivered, kActivated, kRoot };

/// What happened at a campaign event (dense enum; the old std::string
/// labels did not survive fleet-scale event volumes).
enum class CampaignEventKind : std::uint8_t {
  kDelivered,
  kDeliveredLateral,
  kActivated,
  kRoot,
  kPlcCompromised,
  kDeviceImpaired,
  kFailedExploitDetected,
  kHostIdsDetection,
  kPlantAlarmDetection,
};

inline constexpr std::size_t kEventKindCount = 9;

[[nodiscard]] const char* to_string(CampaignEventKind k) noexcept;

struct CampaignEvent {
  double time = 0.0;
  net::NodeId node = 0;
  CampaignEventKind kind = CampaignEventKind::kDelivered;
};

struct CampaignResult {
  std::optional<double> time_of_entry;
  std::optional<double> first_root;
  std::optional<double> first_plc_compromise;
  std::optional<double> time_to_attack;     // TTA: sabotage completed
  std::optional<double> time_to_detection;  // TTSF: perceived manifestation
  std::vector<CampaignEvent> events;  // only when record_events
  std::size_t hosts_compromised = 0;  // final count (>= activated)
  std::size_t plcs_compromised = 0;
  /// Scheduler events executed by this run (throughput accounting).
  std::size_t events_executed = 0;

  /// The attack completed sabotage before being detected and within the
  /// horizon — the paper's "successful attack".
  [[nodiscard]] bool attack_succeeded() const noexcept {
    return time_to_attack.has_value() &&
           (!time_to_detection.has_value() ||
            *time_to_attack <= *time_to_detection);
  }
  [[nodiscard]] bool detected() const noexcept {
    return time_to_detection.has_value();
  }
};

struct CampaignOptions {
  double t_max_hours = 2160.0;  // 90-day horizon
  bool record_events = false;
  /// Detection freezes attacker progress (incident response).
  bool detection_halts_attack = true;
};

/// The measurement engine's c(t) bins: counts[k] is the number of
/// compromised nodes (hosts at >= activated plus owned PLCs) at the last
/// compromise at time <= edges[k], 0 before the first. The ratio is
/// counts[k] / node_count.
struct RatioBins {
  std::span<const double> edges;    // ascending bin upper edges
  std::span<std::uint32_t> counts;  // out; same size as edges
};

/// Precomputed packed per-node campaign state (defined in campaign.cpp).
struct CampaignTables;

class CampaignSimulator {
 public:
  /// Validates the scenario and builds the tables run() reads; the
  /// simulator keeps no reference to `scenario`. `shared_reach`, when
  /// given, is used instead of indexing the topology again: it must have
  /// been built from this scenario's topology and firewall (node counts
  /// are validated; the caller owns the stronger equivalence —
  /// core::MeasurementEngine keys its index map on the topology's
  /// identity plus the firewall's zone-pair verdicts). Construction
  /// consumes no randomness either way, so results do not depend on it.
  CampaignSimulator(const Scenario& scenario, ThreatProfile profile,
                    const divers::VariantCatalog& catalog,
                    DetectionModel detection = {}, CampaignOptions options = {},
                    std::shared_ptr<const net::ReachabilityIndex> shared_reach = nullptr);
  ~CampaignSimulator();

  /// Run one stochastic campaign; deterministic in `rng`. Thread-safe for
  /// concurrent calls on one simulator (all shared state is read-only).
  /// Publishes the run's telemetry before it returns. The final ratio is
  /// (hosts_compromised + plcs_compromised) / node_count.
  [[nodiscard]] CampaignResult run(stats::Rng& rng) const;

  /// The measurement engine's run: the same kernel and the same draws,
  /// with c(t) written into `bins` at each compromise. Allocates nothing
  /// once warm unless record_events is set. Its telemetry stays in the
  /// calling thread's tallies until flush_telemetry().
  [[nodiscard]] CampaignResult run(stats::Rng& rng, RatioBins bins) const;

  /// Publish the calling thread's kernel tallies to the obs:: registry
  /// and zero them. Cheap when there is nothing to publish.
  static void flush_telemetry();

  [[nodiscard]] const ThreatProfile& profile() const noexcept { return profile_; }

  /// The reachability index the tables were built over (the shared one,
  /// or one built at construction); share it with net::MeanFieldEpidemic
  /// instead of building another.
  [[nodiscard]] const net::ReachabilityIndex& reachability() const noexcept;

 private:
  ThreatProfile profile_;
  DetectionModel detection_;
  CampaignOptions options_;
  std::unique_ptr<const CampaignTables> tables_;
};

/// The SCoPE-like data-center cooling scenario used throughout the paper
/// reproduction: corporate zone (2 workstations), DMZ (historian mirror),
/// control zone (SCADA server, engineering workstation, HMI, historian),
/// field zone (2 cooling PLCs + sensor gateway); segmented firewall; USB
/// exposure on workstations and the engineering station. All components
/// start at the baseline (index 0) variants: the monoculture.
[[nodiscard]] Scenario make_scope_cooling_scenario();

}  // namespace divsec::attack
