#include "attack/campaign.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "attack/campaign_rng.h"
#include "net/reachability_index.h"
#include "obs/metrics.h"

namespace divsec::attack {

using divers::ComponentKind;
using net::NodeId;

void Scenario::validate(const divers::VariantCatalog& catalog) const {
  if (software.size() != topology.node_count())
    throw std::invalid_argument("Scenario: software size != node count");
  if (entry_nodes.empty()) throw std::invalid_argument("Scenario: no entry nodes");
  if (firewall_variant >= catalog.count(ComponentKind::kFirewallFirmware))
    throw std::out_of_range("Scenario: firewall variant out of range");
  for (NodeId n = 0; n < topology.node_count(); ++n) {
    const auto& sw = software[n];
    if (sw.os >= catalog.count(ComponentKind::kOs))
      throw std::out_of_range("Scenario: OS variant out of range");
    if (sw.protocol >= catalog.count(ComponentKind::kProtocolStack))
      throw std::out_of_range("Scenario: protocol variant out of range");
    if (sw.plc_firmware &&
        *sw.plc_firmware >= catalog.count(ComponentKind::kPlcFirmware))
      throw std::out_of_range("Scenario: PLC firmware variant out of range");
    if (sw.hmi && *sw.hmi >= catalog.count(ComponentKind::kHmiSoftware))
      throw std::out_of_range("Scenario: HMI variant out of range");
    if (sw.historian && *sw.historian >= catalog.count(ComponentKind::kHistorianDb))
      throw std::out_of_range("Scenario: historian variant out of range");
    if (topology.node(n).role == net::Role::kPlc && !sw.plc_firmware)
      throw std::invalid_argument("Scenario: PLC node without firmware variant");
  }
  for (NodeId n : entry_nodes)
    if (n >= topology.node_count())
      throw std::out_of_range("Scenario: entry node out of range");
  for (NodeId n : target_plcs) {
    if (n >= topology.node_count())
      throw std::out_of_range("Scenario: target PLC out of range");
    if (topology.node(n).role != net::Role::kPlc)
      throw std::invalid_argument("Scenario: sabotage target is not a PLC");
  }
  std::vector<NodeId> targets = target_plcs;
  std::sort(targets.begin(), targets.end());
  if (std::adjacent_find(targets.begin(), targets.end()) != targets.end())
    throw std::invalid_argument("Scenario: duplicate target PLC");
}

const char* to_string(CampaignEventKind k) noexcept {
  switch (k) {
    case CampaignEventKind::kDelivered: return "delivered";
    case CampaignEventKind::kDeliveredLateral: return "delivered-lateral";
    case CampaignEventKind::kActivated: return "activated";
    case CampaignEventKind::kRoot: return "root";
    case CampaignEventKind::kPlcCompromised: return "plc-compromised";
    case CampaignEventKind::kDeviceImpaired: return "device-impaired";
    case CampaignEventKind::kFailedExploitDetected: return "failed-exploit-detected";
    case CampaignEventKind::kHostIdsDetection: return "host-ids-detection";
    case CampaignEventKind::kPlantAlarmDetection: return "plant-alarm-detection";
  }
  return "?";
}

/// Everything run() reads per event, precomputed once per scenario.
/// Deeply immutable after construction: concurrent replications share
/// one Tables instance read-only, and simulators of the same topology
/// share one ReachabilityIndex through the shared_ptr.
struct CampaignTables {
  // Role-derived per-node flags.
  enum : std::uint8_t {
    kFlagPlc = 1,            // counts only when owned
    kFlagHostTarget = 2,     // valid lateral victim
    kFlagPayloadSource = 4,  // can push a PLC payload
  };

  /// Everything an event reads about one node, packed into 12 bytes so
  /// that reading a node touches one row, not one array per field. The
  /// variant indices address the per-variant tables below.
  ///
  /// Thinned-scan weights: scan_w / tunnel_w count the node's (channel,
  /// victim) scan slots over pr.channels — statically reachable targets
  /// and linked-but-blocked (tunnel) targets respectively. A root's slot
  /// range in the weighted victim pick is laid out [direct slots][tunnel
  /// slots], channels in pr.channels order; the aggregate scan clock
  /// fires at propagation_rate × total slots × scan_norm, the exact
  /// Poisson thinning of per-root uniform (victim, channel) scanning.
  struct NodeRow {
    std::uint32_t scan_w = 0;
    std::uint32_t tunnel_w = 0;
    std::uint8_t flags = 0;
    std::uint8_t os = 0;        // OS variant
    std::uint8_t plc_fw = 0;    // PLC firmware variant (target PLCs only)
    std::uint8_t protocol = 0;  // protocol-stack variant (target PLCs only)
  };
  static_assert(sizeof(NodeRow) == 12);

  /// Host exploit parameters against one OS variant: per-session success
  /// probability and exponential delay rate (the VariantCatalog walk,
  /// paid once per variant in use).
  struct OsExploit {
    double activation_p = 0.0, activation_rate = 0.0;
    double privesc_p = 0.0, privesc_rate = 0.0;
    double lateral_p = 0.0;
  };

  std::shared_ptr<const net::ReachabilityIndex> reach;

  std::size_t node_count = 0;
  std::vector<NodeId> entry_nodes;  // where initial delivery can land
  std::vector<NodeId> target_plcs;  // sabotage targets, in pool order
  std::vector<NodeRow> rows;
  std::vector<OsExploit> os_exploits;  // by OS variant
  // PLC payload success: the project-file route by firmware variant, and
  // the fieldbus route, which also has to abuse the protocol stack, by
  // (firmware, protocol) pair.
  std::vector<double> plc_direct_p;
  std::vector<double> plc_modbus_p;  // [firmware × protocol_count + protocol]
  std::size_t protocol_count = 0;
  double firewall_bypass_p = 0.0;
  double host_detection_rate = 0.0;  // stealth-discounted
  double scan_norm = 0.0;  // 1 / (node_count × |pr.channels|)

  [[nodiscard]] const OsExploit& os(NodeId n) const noexcept {
    return os_exploits[rows[n].os];
  }
  [[nodiscard]] double plc_p(NodeId plc, bool via_modbus) const noexcept {
    const NodeRow& r = rows[plc];
    return via_modbus ? plc_modbus_p[r.plc_fw * protocol_count + r.protocol]
                      : plc_direct_p[r.plc_fw];
  }

  CampaignTables(const Scenario& sc, const ThreatProfile& pr,
                 const divers::VariantCatalog& cat, const DetectionModel& det,
                 std::shared_ptr<const net::ReachabilityIndex> shared_reach)
      : reach(shared_reach
                  ? std::move(shared_reach)
                  : std::make_shared<const net::ReachabilityIndex>(sc.topology,
                                                                   sc.firewall)),
        node_count(sc.topology.node_count()),
        entry_nodes(sc.entry_nodes),
        target_plcs(sc.target_plcs) {
    if (reach->node_count() != node_count)
      throw std::invalid_argument(
          "CampaignSimulator: shared ReachabilityIndex node count does not "
          "match the scenario topology");
    const std::size_t n = node_count;
    rows.resize(n);
    os_exploits.resize(cat.count(ComponentKind::kOs));
    std::vector<std::uint8_t> os_done(os_exploits.size(), 0);
    for (NodeId i = 0; i < n; ++i) {
      const net::Role role = sc.topology.node(i).role;
      NodeRow& row = rows[i];
      if (role == net::Role::kPlc) row.flags |= kFlagPlc;
      if (role != net::Role::kPlc && role != net::Role::kSensorGateway)
        row.flags |= kFlagHostTarget;
      if (pr.has_sabotage_payload && (role == net::Role::kEngineering ||
                                      role == net::Role::kScadaServer))
        row.flags |= kFlagPayloadSource;
      row.os = sc.software[i].os;
      const std::size_t v = row.os;
      if (os_done[v]) continue;
      os_done[v] = 1;
      OsExploit& e = os_exploits[v];
      e.activation_p = cat.exploit_success(pr.activation_exploit, v);
      e.activation_rate =
          pr.activation_rate / cat.exploit_work_factor(pr.activation_exploit, v);
      e.privesc_p = cat.exploit_success(pr.privesc_exploit, v);
      e.privesc_rate =
          pr.privesc_rate / cat.exploit_work_factor(pr.privesc_exploit, v);
      e.lateral_p = cat.exploit_success(pr.lateral_exploit, v);
    }
    plc_direct_p.resize(cat.count(ComponentKind::kPlcFirmware));
    protocol_count = cat.count(ComponentKind::kProtocolStack);
    plc_modbus_p.resize(plc_direct_p.size() * protocol_count);
    std::vector<std::uint8_t> fw_done(plc_direct_p.size(), 0);
    std::vector<std::uint8_t> pair_done(plc_modbus_p.size(), 0);
    for (NodeId plc : sc.target_plcs) {
      NodeRow& row = rows[plc];
      row.plc_fw = *sc.software[plc].plc_firmware;
      row.protocol = sc.software[plc].protocol;
      const std::size_t fw = row.plc_fw;
      const std::size_t proto = row.protocol;
      if (!fw_done[fw]) {
        fw_done[fw] = 1;
        plc_direct_p[fw] = cat.exploit_success(pr.plc_exploit, fw);
      }
      const std::size_t pair = fw * protocol_count + proto;
      if (!pair_done[pair]) {
        pair_done[pair] = 1;
        plc_modbus_p[pair] =
            plc_direct_p[fw] * cat.exploit_success(pr.protocol_exploit, proto);
      }
    }
    firewall_bypass_p = cat.exploit_success(pr.firewall_exploit, sc.firewall_variant);
    host_detection_rate = det.host_detection_rate * (1.0 - pr.stealth);
    for (NodeId i = 0; i < n; ++i) {
      std::uint64_t scan = 0, tunnel = 0;
      for (const net::Channel c : pr.channels) {
        scan += reach->target_count(c, i, true);
        tunnel += reach->target_count(c, i, false);
      }
      if (std::max(scan, tunnel) > std::numeric_limits<std::uint32_t>::max())
        throw std::length_error(
            "CampaignSimulator: a node's scan weight does not fit 32 bits");
      rows[i].scan_w = static_cast<std::uint32_t>(scan);
      rows[i].tunnel_w = static_cast<std::uint32_t>(tunnel);
    }
    scan_norm = pr.channels.empty()
                    ? 0.0
                    : 1.0 / (static_cast<double>(n) *
                             static_cast<double>(pr.channels.size()));
  }
};

CampaignSimulator::CampaignSimulator(
    const Scenario& scenario, ThreatProfile profile,
    const divers::VariantCatalog& catalog, DetectionModel detection,
    CampaignOptions options,
    std::shared_ptr<const net::ReachabilityIndex> shared_reach)
    : profile_(std::move(profile)), detection_(detection), options_(options) {
  profile_.validate();
  detection_.validate();
  scenario.validate(catalog);
  if (!(options_.t_max_hours > 0.0))
    throw std::invalid_argument("CampaignOptions: t_max_hours must be > 0");
  tables_ = std::make_unique<const CampaignTables>(
      scenario, profile_, catalog, detection_, std::move(shared_reach));
}

CampaignSimulator::~CampaignSimulator() = default;

const net::ReachabilityIndex& CampaignSimulator::reachability() const noexcept {
  return *tables_->reach;
}

namespace {

/// The campaign's stochastic processes are superposed Poisson streams,
/// and the engine schedules them as such instead of keeping one pending
/// event per node in a shared queue. Per class:
///
///  * worm scanning   — every root scans at rate lambda_p; the
///    superposition is one aggregate process of rate lambda_p * R(t)
///    whose firing owner is uniform over the R roots (exponential race);
///  * payload pushes  — rate lambda_pl * S(t) over rooted
///    engineering/SCADA sources, same construction;
///  * host IDS        — each activated node is detected after an
///    exponential delay; only the FIRST detection matters, and before it
///    the hazard is rate_h * A(t) — one aggregate first-passage process;
///  * plant alarms    — one poll chain per owned PLC, i.e. rate_a * P(t)
///    aggregated, thinned by the spoofing;
///  * sabotage        — first-passage of rate_s * P(t), owner uniform
///    over owned PLCs (constant hazards are memoryless).
///
/// When a membership count changes, the aggregate's next firing is
/// redrawn from `now` at the new rate — exact by memorylessness
/// (min(Exp(a), Exp(b)) ~ Exp(a+b), and the remaining wait of a Poisson
/// superposition at any instant is Exp(total rate)). The event law of
/// the model is exactly the per-node construction's, which
/// tests/campaign_oracle.h writes out rate by rate and solves as a CTMC.
/// What remains per-node — activation and privilege escalation retries —
/// lives in a small binary heap that stays a few entries deep, so the
/// per-event cost no longer grows with fleet compromise the way a
/// per-node event queue's does.
struct QEvent {
  double at = 0.0;
  std::uint32_t seq = 0;  // FIFO tie-break among equal timestamps
  std::uint32_t node = 0;
  std::uint8_t kind = 0;  // 0 = activation, 1 = privesc
};

struct QLater {
  [[nodiscard]] bool operator()(const QEvent& x, const QEvent& y) const noexcept {
    if (x.at != y.at) return x.at > y.at;
    return x.seq > y.seq;
  }
};

constexpr double kNever = std::numeric_limits<double>::infinity();

/// Marks an unowned-pool position that still holds its scenario value.
constexpr NodeId kNoOverride = std::numeric_limits<NodeId>::max();

/// Telemetry tallies of the runs a thread made since its last flush:
/// plain counters, so the event loop never touches an atomic.
/// Observation only — results do not depend on them.
struct KernelTallies {
  std::uint64_t runs = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t scan_candidates = 0;  // thinned worm-scan firings
  std::uint64_t scan_accepted = 0;    // ... that attempted a lateral
  std::array<std::uint64_t, kEventKindCount> kinds{};
  std::array<std::uint64_t, kDrawClassCount> rng_words{};
};

/// The mutable buffers a run borrows, one set per thread. Invariant at
/// rest (between runs): every `state` byte is kClean, every
/// `pool_override` entry is kNoOverride and every pool is empty —
/// whichever simulator, of whatever size or topology, ran last. `state`
/// and `pool_override` only ever grow (to the largest node_count and
/// target count seen), so a run costs O(nodes and targets it touches),
/// not O(node_count) or O(target_plcs), and after warm-up no buffer here
/// allocates. `tallies` accumulate across runs until
/// CampaignSimulator::flush_telemetry() publishes and zeroes them.
struct RunScratch {
  KernelTallies tallies;
  std::vector<NodeState> state;
  std::vector<NodeId> touched;  // nodes moved out of kClean this run
  std::vector<NodeId> pool_override;     // unowned pool over target_plcs
  std::vector<std::size_t> pool_touched;  // positions overridden this run
  std::vector<QEvent> heap;
  std::vector<NodeId> roots;
  std::vector<std::uint64_t> root_cum;
  std::vector<NodeId> payload_sources;
  std::vector<NodeId> owned_plcs;
};

RunScratch& thread_scratch() {
  thread_local RunScratch scratch;
  return scratch;
}

/// Mutable state of one run() over the read-only CampaignTables: the
/// structure-of-arrays kernel. Every random decision draws from the
/// per-event-class facade (attack/campaign_rng.h) under the documented
/// draw-order contract, one word per call drawn on demand.
/// Victim eligibility is tested as state == kClean on top of the shared
/// host-target flag, and the unowned-target pool shrinks by swap-remove —
/// part of the draw-order contract, because the pool order feeds later
/// uniform picks.
///
/// The per-node array and the pools are borrowed from the calling
/// thread's RunScratch. deliver() is the only transition out of kClean
/// and logs the node in `touched`. The unowned pool is never copied: its
/// first `unowned` positions read `pool_override[i]`, or
/// `tb.target_plcs[i]` while that is kNoOverride, and a capture logs the
/// position it overrides in `pool_touched`. The destructor restores
/// exactly the logged nodes and positions and empties the pools, so even
/// a throw mid-run hands the next run a clean scratch.
struct RunState {
  const ThreatProfile& pr;
  const DetectionModel& det;
  const CampaignOptions& opt;
  const CampaignTables& tb;
  RunScratch& scratch;
  KernelTallies& tally;
  CampaignRng rng;
  CampaignResult result;

  // c(t) hook state: the count is sampled at the bin upper edges (none
  // without bins). `bin` is the first edge not yet written,
  // `owned_count` the count since the last compromise.
  const double* edges = nullptr;
  std::uint32_t* counts = nullptr;
  std::size_t bins = 0;
  std::size_t bin = 0;
  std::uint32_t owned_count = 0;

  double now = 0.0;
  bool stopped = false;  // both terminal indicators settled

  // Aggregate process clocks (kNever = disarmed).
  double t_entry = kNever;
  double t_prop = kNever;
  double t_payload = kNever;
  double t_host = kNever;
  double t_alarm = kNever;
  double t_sabotage = kNever;

  // Per-node transient events (activation / privesc retries).
  std::vector<QEvent>& heap;  // min-heap via std::push_heap/pop_heap
  std::uint32_t next_seq = 0;

  NodeState* state = nullptr;           // scratch.state.data(), >= node_count
  std::vector<NodeId>& roots;           // nodes at kRoot, in promotion order
  std::vector<std::uint64_t>& root_cum;  // cumulative scan+tunnel slots per root
  std::uint64_t scan_slots = 0;         // == root_cum.back() (0 when no roots)
  std::vector<NodeId>& payload_sources;  // rooted engineering/SCADA nodes
  std::vector<NodeId>& owned_plcs;       // owned targets, in capture order
  NodeId* pool = nullptr;  // scratch.pool_override.data(), >= target count
  std::size_t unowned = 0;  // live size of the unowned-target pool
  std::size_t hosts_owned = 0;     // non-PLC nodes at >= kActivated
  std::size_t activated_count = 0;  // A(t): host-IDS exposure pool

  RunState(const ThreatProfile& p, const CampaignTables& t,
           const DetectionModel& d, const CampaignOptions& o,
           const stats::Rng& base, RunScratch& scr, const RatioBins* ratio_bins)
      : pr(p),
        det(d),
        opt(o),
        tb(t),
        scratch(scr),
        tally(scr.tallies),
        rng(base),
        heap(scr.heap),
        roots(scr.roots),
        root_cum(scr.root_cum),
        payload_sources(scr.payload_sources),
        owned_plcs(scr.owned_plcs),
        unowned(t.target_plcs.size()) {
    // Growth keeps the invariant (new entries are kClean / kNoOverride),
    // and every throwing step leaves the scratch as it found it, so a
    // throw here (where no destructor runs) cannot dirty it either.
    if (scratch.state.size() < tb.node_count)
      scratch.state.resize(tb.node_count, NodeState::kClean);
    if (scratch.pool_override.size() < unowned)
      scratch.pool_override.resize(unowned, kNoOverride);
    state = scratch.state.data();
    pool = scratch.pool_override.data();
    if (ratio_bins) {
      edges = ratio_bins->edges.data();
      counts = ratio_bins->counts.data();
      bins = ratio_bins->edges.size();
    }
  }

  ~RunState() {
    for (const NodeId n : scratch.touched) state[n] = NodeState::kClean;
    scratch.touched.clear();
    for (const std::size_t i : scratch.pool_touched) pool[i] = kNoOverride;
    scratch.pool_touched.clear();
    heap.clear();
    roots.clear();
    root_cum.clear();
    payload_sources.clear();
    owned_plcs.clear();
  }

  RunState(const RunState&) = delete;  // a copy would restore twice

  void note(NodeId n, CampaignEventKind kind) {
    ++tally.kinds[static_cast<std::size_t>(kind)];
    if (opt.record_events) result.events.push_back({now, n, kind});
  }

  [[nodiscard]] double exp_delay(DrawClass c, double rate) {
    return rng.exp_std(c) / rate;
  }

  /// Next firing of an aggregate process at `rate`, from now. The draw
  /// belongs to the class of the process being armed.
  [[nodiscard]] double exp_in(DrawClass c, double rate) {
    return rate > 0.0 ? now + exp_delay(c, rate) : kNever;
  }

  void push(std::uint8_t kind, NodeId node, double delay) {
    heap.push_back(QEvent{now + delay, next_seq++,
                          static_cast<std::uint32_t>(node), kind});
    std::push_heap(heap.begin(), heap.end(), QLater{});
  }

  /// The per-compromise hook. A bin edge reads the count of the last
  /// compromise at or before it, so edges before `now` take the count
  /// from before this compromise.
  void record_ratio() {
    const std::size_t owned = hosts_owned + owned_plcs.size();
    while (bin < bins && edges[bin] < now) counts[bin++] = owned_count;
    owned_count = static_cast<std::uint32_t>(owned);
  }

  /// Edges past the last compromise read its count.
  void finish_bins() { std::fill(counts + bin, counts + bins, owned_count); }

  void record_detection(CampaignEventKind what) {
    if (result.time_to_detection) return;
    result.time_to_detection = now;
    note(0, what);
    t_host = kNever;  // later detections would be ignored anyway
    t_alarm = kNever;
    maybe_finish();
  }

  /// A failed exploitation attempt may trip crash reporting / AV / IDS.
  /// Deliberately not stealth-discounted: crashes are loud. The draw
  /// belongs to the class of the handler whose attempt failed.
  void failed_attempt(DrawClass c) {
    const double p = det.failed_attempt_detection;
    if (p > 0.0 && rng.bernoulli(c, p))
      record_detection(CampaignEventKind::kFailedExploitDetected);
  }

  void maybe_finish() {
    // Stop once both terminal indicators are known — or once detection
    // triggered incident response (the attacker is frozen, so TTA can
    // never happen).
    if (result.time_to_detection.has_value() &&
        (result.time_to_attack.has_value() || opt.detection_halts_attack))
      stopped = true;
  }

  // --- Attack processes ------------------------------------------------

  [[nodiscard]] bool effective_reach(DrawClass c, NodeId from, NodeId to,
                                     net::Channel ch) {
    // Physical / policy reachability; a denied-by-policy hop can still be
    // attempted through a firewall exploit (tunnelling).
    if (tb.reach->can_reach(from, to, ch)) return true;
    if (ch == net::Channel::kUsb) return false;
    if (!tb.reach->linked(from, to)) return false;
    return rng.bernoulli(c, tb.firewall_bypass_p);
  }

  /// Position i of the unowned-target pool, i < unowned.
  [[nodiscard]] NodeId unowned_at(std::size_t i) const {
    const NodeId o = pool[i];
    return o == kNoOverride ? tb.target_plcs[i] : o;
  }

  /// Swap-remove position i from the unowned pool: the last live entry
  /// moves into i. The first override of a position is logged so the
  /// destructor can restore it.
  void remove_unowned(std::size_t i) {
    const NodeId last = unowned_at(unowned - 1);
    if (pool[i] == kNoOverride) scratch.pool_touched.push_back(i);
    pool[i] = last;
    --unowned;
  }

  void deliver(NodeId n, CampaignEventKind kind) {
    scratch.touched.push_back(n);  // first: a throw leaves `n` clean
    state[n] = NodeState::kDelivered;
    note(n, kind);
    push(0, n, exp_delay(DrawClass::kActivation, tb.os(n).activation_rate));
  }

  void on_entry() {
    const NodeId n =
        tb.entry_nodes[rng.below(DrawClass::kEntry, tb.entry_nodes.size())];
    if (state[n] == NodeState::kClean) {
      if (!result.time_of_entry) result.time_of_entry = now;
      deliver(n, CampaignEventKind::kDelivered);
    }
    // Operators keep plugging media in.
    t_entry = exp_in(DrawClass::kEntry, pr.entry_rate);
  }

  void on_activation(NodeId n) {
    if (state[n] != NodeState::kDelivered) return;
    const CampaignTables::OsExploit& ex = tb.os(n);
    if (rng.bernoulli(DrawClass::kActivation, ex.activation_p)) {
      state[n] = NodeState::kActivated;
      if (!(tb.rows[n].flags & CampaignTables::kFlagPlc)) ++hosts_owned;
      ++activated_count;
      if (!result.time_to_detection && tb.host_detection_rate > 0.0)
        t_host = exp_in(DrawClass::kHostIds,
                        tb.host_detection_rate *
                            static_cast<double>(activated_count));
      note(n, CampaignEventKind::kActivated);
      record_ratio();
      push(1, n, exp_delay(DrawClass::kPrivesc, ex.privesc_rate));
    } else {
      failed_attempt(DrawClass::kActivation);
      push(0, n, exp_delay(DrawClass::kActivation, ex.activation_rate));
    }
  }

  void on_privesc(NodeId n) {
    if (state[n] != NodeState::kActivated) return;
    const CampaignTables::NodeRow& row = tb.rows[n];
    const CampaignTables::OsExploit& ex = tb.os_exploits[row.os];
    if (rng.bernoulli(DrawClass::kPrivesc, ex.privesc_p)) {
      state[n] = NodeState::kRoot;
      if (!result.first_root) result.first_root = now;
      note(n, CampaignEventKind::kRoot);
      roots.push_back(n);
      scan_slots += std::uint64_t{row.scan_w} + row.tunnel_w;
      root_cum.push_back(scan_slots);
      t_prop = exp_in(DrawClass::kPropagation,
                      pr.propagation_rate * static_cast<double>(scan_slots) *
                          tb.scan_norm);
      if (row.flags & CampaignTables::kFlagPayloadSource) {
        payload_sources.push_back(n);
        if (unowned > 0)
          t_payload =
              exp_in(DrawClass::kPayload,
                     pr.payload_rate *
                         static_cast<double>(payload_sources.size()));
      }
    } else {
      failed_attempt(DrawClass::kPrivesc);
      push(1, n, exp_delay(DrawClass::kPrivesc, ex.privesc_rate));
    }
  }

  void on_propagation() {
    // One candidate firing of the thinned worm-scan process. The model
    // is "every root scans uniform (victim, channel) picks at rate λ" —
    // but ~95% of those scans hit an unreachable pair and change
    // nothing. Poisson thinning makes skipping them exact: the
    // sub-process of scans that land on a *statically possible* pair
    // (reachable, weight 1, or tunnel-linked, later accepted with the
    // bypass probability) is Poisson at rate λ × slots × scan_norm with
    // the pair uniform over the slot ranges, so one weighted word picks
    // root, channel and victim from the precomputed ReachabilityIndex
    // target lists and per-(root, victim, channel) intensities match the
    // unthinned scan exactly. Victim eligibility is then still-clean AND
    // host-target (the lists never contain the owner, so v != n is
    // structural).
    const std::uint64_t x = rng.below(DrawClass::kPropagation, scan_slots);
    const std::size_t ri =
        static_cast<std::size_t>(std::upper_bound(root_cum.begin(),
                                                  root_cum.end(), x) -
                                 root_cum.begin());
    const NodeId n = roots[ri];
    std::uint64_t rem = x - (ri == 0 ? 0 : root_cum[ri - 1]);
    const std::uint32_t scan_w = tb.rows[n].scan_w;
    const bool direct = rem < scan_w;
    if (!direct) rem -= scan_w;
    NodeId v = 0;
    for (const net::Channel c : pr.channels) {
      const std::size_t count = tb.reach->target_count(c, n, direct);
      if (rem < count) {
        v = tb.reach->target(c, n, rem, direct);
        break;
      }
      rem -= count;
    }
    ++tally.scan_candidates;
    if (state[v] == NodeState::kClean &&
        (tb.rows[v].flags & CampaignTables::kFlagHostTarget) &&
        (direct || rng.bernoulli(DrawClass::kPropagation, tb.firewall_bypass_p))) {
      ++tally.scan_accepted;
      if (rng.bernoulli(DrawClass::kPropagation, tb.os(v).lateral_p)) {
        deliver(v, CampaignEventKind::kDeliveredLateral);
      } else {
        failed_attempt(DrawClass::kPropagation);
      }
    }
    t_prop = exp_in(DrawClass::kPropagation,
                    pr.propagation_rate * static_cast<double>(scan_slots) *
                        tb.scan_norm);
  }

  void on_payload() {
    // One push of the aggregate payload process: a rooted
    // engineering/SCADA source tries an unowned target PLC over an
    // engineering or fieldbus channel. Once every target is owned the
    // process disarms — targets never refill, so later firings could
    // only ever be no-ops.
    if (unowned > 0) {
      const NodeId n = payload_sources[rng.below(
          DrawClass::kPayload, payload_sources.size())];
      const std::size_t pick = rng.below(DrawClass::kPayload, unowned);
      const NodeId plc = unowned_at(pick);
      const bool via_project =
          effective_reach(DrawClass::kPayload, n, plc, net::Channel::kProjectFile);
      const bool via_modbus =
          !via_project &&
          effective_reach(DrawClass::kPayload, n, plc, net::Channel::kModbus);
      if (via_project || via_modbus) {
        if (rng.bernoulli(DrawClass::kPayload, tb.plc_p(plc, via_modbus))) {
          owned_plcs.push_back(plc);
          // Swap-remove (contract): the pool order feeds later picks.
          remove_unowned(pick);
          if (!result.first_plc_compromise) result.first_plc_compromise = now;
          note(plc, CampaignEventKind::kPlcCompromised);
          record_ratio();
          const double owned = static_cast<double>(owned_plcs.size());
          if (!result.time_to_attack)
            t_sabotage =
                exp_in(DrawClass::kSabotage, owned / pr.sabotage_mean_hours);
          if (!result.time_to_detection)
            t_alarm = exp_in(DrawClass::kAlarm, det.alarm_detection_rate * owned);
        } else {
          failed_attempt(DrawClass::kPayload);
        }
      }
    }
    t_payload = unowned == 0
                    ? kNever
                    : exp_in(DrawClass::kPayload,
                             pr.payload_rate *
                                 static_cast<double>(payload_sources.size()));
  }

  void on_sabotage() {
    // First passage of the aggregate sabotage process: slow physical
    // damage develops on one owned PLC (uniform by symmetry of the
    // constant per-PLC hazards).
    const NodeId plc =
        owned_plcs[rng.below(DrawClass::kSabotage, owned_plcs.size())];
    result.time_to_attack = now;
    note(plc, CampaignEventKind::kDeviceImpaired);
    t_sabotage = kNever;
    maybe_finish();
  }

  // --- Detection processes ----------------------------------------------

  void on_host_detect() {
    // First passage of the aggregate host-IDS process over the activated
    // pool: any activated node suffices to raise the incident.
    record_detection(CampaignEventKind::kHostIdsDetection);
  }

  void on_alarm_detect() {
    // Thinning: poll at the undefended alarm rate (one chain per owned
    // PLC), accept with the spoof-adjusted probability. Spoofing needs an
    // owned monitoring view (HMI, SCADA server, or the engineering
    // station running the vendor tools, where Stuxnet hooked the
    // s7otbxdx DLL), and one is always owned here: only a rooted
    // engineering/SCADA payload source captures a PLC, and both roles
    // are monitoring views. So the alarm clock never runs without one.
    if (rng.bernoulli(DrawClass::kAlarm, 1.0 - pr.spoof_effectiveness)) {
      record_detection(CampaignEventKind::kPlantAlarmDetection);
      return;
    }
    t_alarm = exp_in(DrawClass::kAlarm,
                     det.alarm_detection_rate *
                         static_cast<double>(owned_plcs.size()));
  }

  void run_until(double t_max) {
    t_entry = exp_in(DrawClass::kEntry, pr.entry_rate);
    while (!stopped) {
      // Next event: min over the aggregate clocks and the retry heap.
      // Exact ties are measure-zero (all delays are continuous); the
      // scan order below fixes them deterministically.
      double at = t_entry;
      int which = 0;
      if (t_prop < at) { at = t_prop; which = 1; }
      if (t_payload < at) { at = t_payload; which = 2; }
      if (t_sabotage < at) { at = t_sabotage; which = 3; }
      if (t_host < at) { at = t_host; which = 4; }
      if (t_alarm < at) { at = t_alarm; which = 5; }
      if (!heap.empty() && heap.front().at < at) { at = heap.front().at; which = 6; }
      if (at > t_max) break;  // includes the all-disarmed (kNever) case
      now = at;
      ++result.events_executed;
      switch (which) {
        case 0: on_entry(); break;
        case 1: on_propagation(); break;
        case 2: on_payload(); break;
        case 3: on_sabotage(); break;
        case 4: on_host_detect(); break;
        case 5: on_alarm_detect(); break;
        case 6: {
          const QEvent ev = heap.front();
          std::pop_heap(heap.begin(), heap.end(), QLater{});
          heap.pop_back();
          if (ev.kind == 0)
            on_activation(ev.node);
          else
            on_privesc(ev.node);
          break;
        }
      }
    }
  }
};

/// The registry handles the tallies flush into.
struct CampaignCounters {
  obs::Counter& runs = obs::counter("campaign.runs");
  obs::Counter& events_executed = obs::counter("campaign.events.executed");
  obs::Counter& scan_candidates = obs::counter("campaign.scan.candidates");
  obs::Counter& scan_accepted = obs::counter("campaign.scan.accepted");
  std::array<obs::Counter*, kEventKindCount> kinds{};
  std::array<obs::Counter*, kDrawClassCount> rng_words{};

  CampaignCounters() {
    for (std::size_t k = 0; k < kEventKindCount; ++k)
      kinds[k] = &obs::counter(std::string("campaign.events.") +
                               to_string(static_cast<CampaignEventKind>(k)));
    static constexpr const char* kClassNames[kDrawClassCount] = {
        "entry",   "activation", "privesc",  "propagation",
        "payload", "sabotage",   "host_ids", "alarm"};
    for (std::size_t c = 0; c < kDrawClassCount; ++c)
      rng_words[c] =
          &obs::counter(std::string("campaign.rng_words.") + kClassNames[c]);
  }

  static const CampaignCounters& instance() {
    static const CampaignCounters counters;
    return counters;
  }
};

/// One kernel run; `bins`, when given, receive c(t).
CampaignResult run_kernel(const ThreatProfile& pr, const CampaignTables& tb,
                          const DetectionModel& det, const CampaignOptions& opt,
                          const stats::Rng& base, const RatioBins* bins) {
  RunState st(pr, tb, det, opt, base, thread_scratch(), bins);
  st.run_until(opt.t_max_hours);
  st.finish_bins();
  st.result.hosts_compromised = st.hosts_owned;
  st.result.plcs_compromised = st.owned_plcs.size();

  KernelTallies& t = st.tally;
  ++t.runs;
  t.events_executed += st.result.events_executed;
  const auto& words = st.rng.words_drawn();
  for (std::size_t c = 0; c < kDrawClassCount; ++c) t.rng_words[c] += words[c];
  return std::move(st.result);
}

}  // namespace

CampaignResult CampaignSimulator::run(stats::Rng& rng) const {
  // The facade derives the class streams without consuming base state,
  // so run() leaves `rng` untouched — a (cell, rep) job stays a pure
  // function of Rng(cell.seed, rep).
  CampaignResult r =
      run_kernel(profile_, *tables_, detection_, options_, rng, nullptr);
  flush_telemetry();
  return r;
}

CampaignResult CampaignSimulator::run(stats::Rng& rng, RatioBins bins) const {
  if (bins.counts.size() != bins.edges.size())
    throw std::invalid_argument(
        "CampaignSimulator::run: ratio bin counts and edges differ in size");
  return run_kernel(profile_, *tables_, detection_, options_, rng, &bins);
}

void CampaignSimulator::flush_telemetry() {
  KernelTallies& t = thread_scratch().tallies;
  if (t.runs == 0) return;
  const CampaignCounters& counters = CampaignCounters::instance();
  counters.runs.add(t.runs);
  counters.events_executed.add(t.events_executed);
  counters.scan_candidates.add(t.scan_candidates);
  counters.scan_accepted.add(t.scan_accepted);
  for (std::size_t k = 0; k < kEventKindCount; ++k)
    if (t.kinds[k]) counters.kinds[k]->add(t.kinds[k]);
  for (std::size_t c = 0; c < kDrawClassCount; ++c)
    if (t.rng_words[c]) counters.rng_words[c]->add(t.rng_words[c]);
  t = KernelTallies{};
}

Scenario make_scope_cooling_scenario() {
  Scenario sc;
  auto& t = sc.topology;
  using net::Role;
  using net::Zone;
  // Corporate
  const auto ws1 = t.add_node("corp.ws1", Zone::kCorporate, Role::kWorkstation, true);
  const auto ws2 = t.add_node("corp.ws2", Zone::kCorporate, Role::kWorkstation, true);
  const auto mail = t.add_node("corp.server", Zone::kCorporate, Role::kServer, false);
  // DMZ
  const auto mirror = t.add_node("dmz.hist-mirror", Zone::kDmz, Role::kHistorian, false);
  // Control
  const auto scada = t.add_node("ctl.scada", Zone::kControl, Role::kScadaServer, false);
  const auto eng = t.add_node("ctl.eng", Zone::kControl, Role::kEngineering, true);
  const auto hmi = t.add_node("ctl.hmi", Zone::kControl, Role::kHmi, false);
  const auto hist = t.add_node("ctl.historian", Zone::kControl, Role::kHistorian, false);
  // Field
  const auto plc1 = t.add_node("fld.plc-chiller", Zone::kField, Role::kPlc, false);
  const auto plc2 = t.add_node("fld.plc-crac", Zone::kField, Role::kPlc, false);
  const auto gw = t.add_node("fld.sensor-gw", Zone::kField, Role::kSensorGateway, false);

  // Corporate LAN
  t.connect(ws1, ws2);
  t.connect(ws1, mail);
  t.connect(ws2, mail);
  // Corporate <-> DMZ <-> control
  t.connect(mail, mirror);
  t.connect(mirror, hist);
  // Control LAN
  t.connect(scada, eng);
  t.connect(scada, hmi);
  t.connect(scada, hist);
  t.connect(eng, hmi);
  // Control <-> field
  t.connect(scada, plc1);
  t.connect(scada, plc2);
  t.connect(eng, plc1);
  t.connect(eng, plc2);
  t.connect(scada, gw);

  sc.firewall = net::Firewall::segmented_ics();
  sc.firewall_variant = 0;
  sc.software.assign(t.node_count(), NodeSoftware{});
  sc.software[plc1].plc_firmware = 0;
  sc.software[plc2].plc_firmware = 0;
  sc.software[hmi].hmi = 0;
  sc.software[mirror].historian = 0;
  sc.software[hist].historian = 0;
  sc.entry_nodes = {ws1, ws2, eng};
  sc.target_plcs = {plc1, plc2};
  return sc;
}

}  // namespace divsec::attack
