// campaign_oracle.h — an exact reference for the campaign model.
//
// Every delay of the campaign model is exponential, so a small scenario's
// campaign is a finite continuous-time Markov chain. This header builds
// that chain from the model's law and solves it by uniformization: the
// paper's indicators come out exactly (up to a stated truncation bound),
// with no sampling at all.
//
//  * Ctmc + solve_transient — a transition-list CTMC and its transient
//    distribution at increasing times. Between consecutive times the
//    solver sums the Poisson-weighted powers of the uniformized matrix
//    P = I + Q / Λ and cuts each sum once the Poisson tail is below
//    kStepTolerance. The dropped tail masses are summed into
//    `truncation_bound`, an upper bound on the L1 error of every returned
//    distribution (stochastic matrices do not expand L1 errors), hence on
//    the error of every expectation of a reward in [0, 1].
//
//  * campaign_chain — the campaign model's chain. A state (marking) is
//    each node's state (clean, delivered, activated, root), the set of
//    owned target PLCs, and three flags: sabotage done (TTA), detected
//    (TTSF) and "sabotage came first" (the paper's successful attack).
//    Rates are written per node and per (root, victim, channel) pair from
//    public API only — VariantCatalog::exploit_success /
//    exploit_work_factor, net::can_reach, Topology::linked, ThreatProfile
//    and DetectionModel — never from the kernel's precomputed tables,
//    reachability index or draw classes, so the two implementations share
//    no code below the public model description.
//
// The law, per transition out of a non-frozen marking (N nodes, E the
// entry multiset, fad = DetectionModel::failed_attempt_detection; every
// failed exploitation attempt detects with probability fad while
// undetected):
//
//  entry      clean n ∈ E → delivered, at entry_rate × mult(n) / |E|;
//  activation delivered n → activated at r·p, fail at r·(1−p), with
//             p = exploit_success(activation, os), r = activation_rate /
//             exploit_work_factor(activation, os);
//  privesc    activated n → root, same form with the privesc exploit;
//  scan       per root a, channel c of the profile and node v ≠ a that is
//             clean and a host (not a PLC or sensor gateway), at
//             propagation_rate / (N × |channels|) if can_reach(a, v, c),
//             else × firewall bypass p if c is a link channel and
//             linked(a, v): v → delivered with the lateral exploit's p,
//             fail otherwise;
//  payload    per rooted engineering/SCADA source s and unowned target q
//             (profile has a sabotage payload), at payload_rate / |U|:
//             the project-file route opens with probability 1 if
//             can_reach, bypass p if only linked; failing that the Modbus
//             route likewise; q is owned with the PLC exploit's p (project)
//             or that times the protocol exploit's p (Modbus), fail
//             otherwise;
//  sabotage   k owned targets, no sabotage yet: → sabotaged at k / mean;
//  host IDS   undetected: → detected at host_rate × (1 − stealth) × the
//             number of nodes at activated or root;
//  alarm      undetected: → detected at alarm_rate × k × (1 − spoof).
//
// A marking is frozen (absorbing) once detected and either sabotaged or
// detection_halts_attack: that is where the kernel stops. c(t) counts
// non-PLC nodes at activated or root plus owned targets, over N.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "attack/campaign.h"
#include "attack/threat.h"
#include "divers/variants.h"
#include "net/reachability.h"

namespace divsec::oracle {

/// A finite CTMC as a list of (from, to, rate) transitions; parallel
/// transitions add. solve_transient checks every transition: states in
/// range, from != to, rate positive and finite.
struct Ctmc {
  struct Transition {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    double rate = 0.0;
  };
  std::size_t states = 0;
  std::vector<Transition> transitions;
};

/// Distributions at the requested times, plus the bound on their L1
/// truncation error.
struct Transient {
  std::vector<std::vector<double>> at;  // at[k][state] at times[k]
  double truncation_bound = 0.0;
};

/// The Poisson tail mass solve_transient may drop per time step.
inline constexpr double kStepTolerance = 1e-12;

/// Transient distributions at increasing times >= 0, starting from `p0`
/// at time 0. Each step drops at most kStepTolerance of Poisson tail; the
/// sum over steps is reported as `truncation_bound`.
inline Transient solve_transient(const Ctmc& chain, std::vector<double> p0,
                                 std::span<const double> times) {
  if (p0.size() != chain.states)
    throw std::invalid_argument("solve_transient: p0 size != states");
  std::vector<double> exit(chain.states, 0.0);
  for (const auto& t : chain.transitions) {
    if (t.from >= chain.states || t.to >= chain.states)
      throw std::out_of_range("solve_transient: state out of range");
    if (t.from == t.to) throw std::invalid_argument("solve_transient: self-loop");
    if (!(t.rate > 0.0 && std::isfinite(t.rate)))
      throw std::invalid_argument("solve_transient: rate not positive and finite");
    exit[t.from] += t.rate;
  }
  const double lambda =
      exit.empty() ? 0.0 : *std::max_element(exit.begin(), exit.end());

  Transient out;
  std::vector<double> v(chain.states), next(chain.states), sum(chain.states);
  double now = 0.0;
  for (const double t : times) {
    if (!(t >= now)) throw std::invalid_argument("solve_transient: times must increase");
    const double mean = lambda * (t - now);
    now = t;
    if (mean > 0.0) {
      // Poisson(mean) weights in log space, so a long step cannot
      // underflow exp(-mean). The sum stops at the first K >= mean whose
      // tail bound w_{K+1} / (1 - mean / (K + 2)) is within tolerance.
      const auto weight = [mean](std::size_t j) {
        return std::exp(-mean + static_cast<double>(j) * std::log(mean) -
                        std::lgamma(static_cast<double>(j) + 1.0));
      };
      v = p0;
      std::fill(sum.begin(), sum.end(), 0.0);
      for (std::size_t j = 0;; ++j) {
        const double w = weight(j);
        for (std::size_t s = 0; s < chain.states; ++s) sum[s] += w * v[s];
        const double k = static_cast<double>(j);
        if (k >= mean) {
          const double tail = weight(j + 1) / (1.0 - mean / (k + 2.0));
          if (tail <= kStepTolerance) {
            out.truncation_bound += tail;
            break;
          }
        }
        // v <- v P with P = I + Q / lambda.
        for (std::size_t s = 0; s < chain.states; ++s)
          next[s] = v[s] * (1.0 - exit[s] / lambda);
        for (const auto& tr : chain.transitions)
          next[tr.to] += v[tr.from] * tr.rate / lambda;
        v.swap(next);
      }
      p0 = sum;
    }
    out.at.push_back(p0);
  }
  return out;
}

/// The campaign model's chain with, per state, what the indicators read.
/// State 0 is the initial marking (every node clean, nothing owned).
struct CampaignChain {
  Ctmc chain;
  std::vector<std::uint8_t> sabotaged;  // TTA has happened
  std::vector<std::uint8_t> detected;   // TTSF has happened
  std::vector<std::uint8_t> succeeded;  // sabotage before detection
  std::vector<double> ratio;            // compromised ratio c
};

/// Nodes a marking key can hold (2 bits of state each, plus a target bit).
inline constexpr std::size_t kMaxOracleNodes = 8;

inline CampaignChain campaign_chain(const attack::Scenario& sc,
                                    const attack::ThreatProfile& pr,
                                    const divers::VariantCatalog& cat,
                                    const attack::DetectionModel& det,
                                    const attack::CampaignOptions& opt) {
  using attack::NodeState;
  using net::Channel;
  using net::Role;
  sc.validate(cat);
  const std::size_t n = sc.topology.node_count();
  if (n > kMaxOracleNodes) throw std::invalid_argument("campaign_chain: too many nodes");
  const std::size_t targets = sc.target_plcs.size();

  // Per-node law.
  struct NodeLaw {
    double act_p, act_rate, priv_p, priv_rate, lateral_p;
    bool host, plc, payload_source;
  };
  std::vector<NodeLaw> node(n);
  for (net::NodeId i = 0; i < n; ++i) {
    const Role role = sc.topology.node(i).role;
    const std::size_t os = sc.software[i].os;
    node[i] = {cat.exploit_success(pr.activation_exploit, os),
               pr.activation_rate / cat.exploit_work_factor(pr.activation_exploit, os),
               cat.exploit_success(pr.privesc_exploit, os),
               pr.privesc_rate / cat.exploit_work_factor(pr.privesc_exploit, os),
               cat.exploit_success(pr.lateral_exploit, os),
               role != Role::kPlc && role != Role::kSensorGateway,
               role == Role::kPlc,
               pr.has_sabotage_payload &&
                   (role == Role::kEngineering || role == Role::kScadaServer)};
  }
  const double bypass = cat.exploit_success(pr.firewall_exploit, sc.firewall_variant);
  // A route's opening probability: reachable, or tunnelled over a link.
  const auto opens = [&](net::NodeId a, net::NodeId b, Channel c) {
    if (net::can_reach(sc.topology, sc.firewall, a, b, c)) return 1.0;
    return c != Channel::kUsb && sc.topology.linked(a, b) ? bypass : 0.0;
  };
  // Per (root, victim) scan intensity: the per-channel terms summed.
  const double per_pair = pr.propagation_rate /
                          (static_cast<double>(n) * static_cast<double>(pr.channels.size()));
  std::vector<double> scan(n * n, 0.0);
  for (net::NodeId a = 0; a < n; ++a)
    for (net::NodeId v = 0; v < n; ++v)
      if (v != a)
        for (const Channel c : pr.channels) scan[a * n + v] += per_pair * opens(a, v, c);
  // Per (source, target) payload outcome probabilities.
  std::vector<double> pay_ok(n * targets, 0.0), pay_fail(n * targets, 0.0);
  for (net::NodeId s = 0; s < n; ++s)
    for (std::size_t q = 0; q < targets; ++q) {
      const net::NodeId plc = sc.target_plcs[q];
      const double direct = cat.exploit_success(pr.plc_exploit, *sc.software[plc].plc_firmware);
      const double modbus =
          direct * cat.exploit_success(pr.protocol_exploit, sc.software[plc].protocol);
      const double project = opens(s, plc, Channel::kProjectFile);
      const double fieldbus = (1.0 - project) * opens(s, plc, Channel::kModbus);
      pay_ok[s * targets + q] = project * direct + fieldbus * modbus;
      pay_fail[s * targets + q] = project * (1.0 - direct) + fieldbus * (1.0 - modbus);
    }
  const double host_rate = det.host_detection_rate * (1.0 - pr.stealth);
  const double alarm_rate = det.alarm_detection_rate * (1.0 - pr.spoof_effectiveness);
  const double fad = det.failed_attempt_detection;

  // Marking key: 2 bits per node, then the owned-target mask, then the
  // sabotaged / detected / succeeded flags.
  const std::size_t owned_shift = 2 * n;
  const std::size_t flag_shift = owned_shift + targets;
  const std::uint64_t kSab = 1ull << flag_shift, kDet = kSab << 1, kWon = kSab << 2;
  const auto state_of = [](std::uint64_t key, std::size_t i) {
    return static_cast<NodeState>((key >> (2 * i)) & 3u);
  };
  const auto with_state = [](std::uint64_t key, std::size_t i, NodeState s) {
    return (key & ~(3ull << (2 * i))) | (static_cast<std::uint64_t>(s) << (2 * i));
  };

  // Breadth-first over reachable markings; every transition changes the
  // key, so none is a self-loop.
  CampaignChain out;
  std::vector<std::uint64_t> keys{0};
  std::unordered_map<std::uint64_t, std::uint32_t> index{{0, 0}};
  for (std::uint32_t head = 0; head < keys.size(); ++head) {
    const std::uint64_t key = keys[head];
    const auto go = [&](std::uint64_t to, double rate) {
      if (rate <= 0.0) return;
      const auto [it, fresh] = index.emplace(to, static_cast<std::uint32_t>(keys.size()));
      if (fresh) keys.push_back(to);
      out.chain.transitions.push_back({head, it->second, rate});
    };
    const bool sab = key & kSab, detd = key & kDet;
    const auto fail = [&](double rate) {
      if (!detd) go(key | kDet, rate * fad);
    };
    const bool frozen = detd && (sab || opt.detection_halts_attack);
    if (!frozen) {
      for (const net::NodeId e : sc.entry_nodes)
        if (state_of(key, e) == NodeState::kClean)
          go(with_state(key, e, NodeState::kDelivered),
             pr.entry_rate / static_cast<double>(sc.entry_nodes.size()));
      std::size_t active = 0;
      std::vector<std::size_t> sources;
      for (net::NodeId i = 0; i < n; ++i) {
        const NodeLaw& law = node[i];
        switch (state_of(key, i)) {
          case NodeState::kClean: break;
          case NodeState::kDelivered:
            go(with_state(key, i, NodeState::kActivated), law.act_rate * law.act_p);
            fail(law.act_rate * (1.0 - law.act_p));
            break;
          case NodeState::kActivated:
            ++active;
            go(with_state(key, i, NodeState::kRoot), law.priv_rate * law.priv_p);
            fail(law.priv_rate * (1.0 - law.priv_p));
            break;
          case NodeState::kRoot:
            ++active;
            if (law.payload_source) sources.push_back(i);
            for (net::NodeId v = 0; v < n; ++v) {
              const double rate = scan[i * n + v];
              if (rate > 0.0 && node[v].host && state_of(key, v) == NodeState::kClean) {
                go(with_state(key, v, NodeState::kDelivered), rate * node[v].lateral_p);
                fail(rate * (1.0 - node[v].lateral_p));
              }
            }
            break;
        }
      }
      std::size_t owned = 0;
      std::vector<std::size_t> unowned;
      for (std::size_t q = 0; q < targets; ++q) {
        if (key >> (owned_shift + q) & 1u) ++owned;
        else unowned.push_back(q);
      }
      for (const std::size_t s : sources)
        for (const std::size_t q : unowned) {
          const double rate = pr.payload_rate / static_cast<double>(unowned.size());
          go(key | 1ull << (owned_shift + q), rate * pay_ok[s * targets + q]);
          fail(rate * pay_fail[s * targets + q]);
        }
      if (!sab && owned > 0)
        go(key | kSab | (detd ? 0 : kWon),
           static_cast<double>(owned) / pr.sabotage_mean_hours);
      if (!detd) {
        go(key | kDet, host_rate * static_cast<double>(active));
        go(key | kDet, alarm_rate * static_cast<double>(owned));
      }
    }
  }

  out.chain.states = keys.size();
  for (const std::uint64_t key : keys) {
    out.sabotaged.push_back((key & kSab) != 0);
    out.detected.push_back((key & kDet) != 0);
    out.succeeded.push_back((key & kWon) != 0);
    std::size_t compromised = 0;
    for (net::NodeId i = 0; i < n; ++i)
      if (!node[i].plc && state_of(key, i) >= NodeState::kActivated) ++compromised;
    for (std::size_t q = 0; q < targets; ++q) compromised += key >> (owned_shift + q) & 1u;
    out.ratio.push_back(static_cast<double>(compromised) / static_cast<double>(n));
  }
  return out;
}

/// The paper's indicators at each requested time, exactly.
struct ExactIndicators {
  std::size_t states = 0;
  std::vector<double> tta_cdf;      // P[TTA <= t]
  std::vector<double> ttsf_cdf;     // P[TTSF <= t]
  std::vector<double> success;      // P[sabotage by t, before detection]
  std::vector<double> ratio_mean;   // E[c(t)]
  std::vector<double> ratio_var;    // Var[c(t)]
  double truncation_bound = 0.0;    // L1 bound on every value's error
};

inline ExactIndicators solve_campaign(const attack::Scenario& sc,
                                      const attack::ThreatProfile& pr,
                                      const divers::VariantCatalog& cat,
                                      const attack::DetectionModel& det,
                                      const attack::CampaignOptions& opt,
                                      std::span<const double> times) {
  const CampaignChain cc = campaign_chain(sc, pr, cat, det, opt);
  std::vector<double> p0(cc.chain.states, 0.0);
  p0[0] = 1.0;
  const Transient tr = solve_transient(cc.chain, std::move(p0), times);
  ExactIndicators out;
  out.states = cc.chain.states;
  out.truncation_bound = tr.truncation_bound;
  for (const auto& p : tr.at) {
    double tta = 0.0, ttsf = 0.0, won = 0.0, mean = 0.0, square = 0.0;
    for (std::size_t s = 0; s < p.size(); ++s) {
      tta += cc.sabotaged[s] * p[s];
      ttsf += cc.detected[s] * p[s];
      won += cc.succeeded[s] * p[s];
      mean += cc.ratio[s] * p[s];
      square += cc.ratio[s] * cc.ratio[s] * p[s];
    }
    out.tta_cdf.push_back(tta);
    out.ttsf_cdf.push_back(ttsf);
    out.success.push_back(won);
    out.ratio_mean.push_back(mean);
    out.ratio_var.push_back(std::max(0.0, square - mean * mean));
  }
  return out;
}

}  // namespace divsec::oracle
