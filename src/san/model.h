// model.h — Stochastic Activity Networks (SAN).
//
// SANs (Sanders & Meyer) generalize stochastic Petri nets with input
// gates (arbitrary enabling predicates + marking functions) and
// probabilistic cases on activity completion. The paper's SCoPE case
// study "has been developed by means of the stochastic activity networks
// (SAN) formalism"; this module is the formalism, and simulator.h is its
// discrete-event solver.
//
// Semantics implemented (standard):
//  * an activity is enabled iff all its input arcs are satisfied and all
//    its input-gate predicates hold;
//  * enabled timed activities sample a completion time from their delay
//    distribution; if an activity becomes disabled before completing it
//    is aborted (its clock is discarded);
//  * on completion, input arcs consume tokens, input-gate functions run,
//    one case is selected by its probability, and that case's output arcs
//    run.
// Every activity is timed, with a fixed rate: the models this library
// builds (the staged attack, the paper's two-machine network, the
// validation queues) need no instantaneous activities, output gates or
// marking-dependent rates.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "stats/distributions.h"

namespace divsec::san {

using PlaceId = std::size_t;
using ActivityId = std::size_t;
using Tokens = std::int64_t;

/// A marking assigns a token count to every place.
using Marking = std::vector<Tokens>;

/// Arbitrary enabling predicate over the marking.
using Predicate = std::function<bool(const Marking&)>;
/// Arbitrary marking transformation (input-gate function).
using MarkingFn = std::function<void(Marking&)>;

struct Place {
  std::string name;
  Tokens initial = 0;
};

struct InputArc {
  PlaceId place;
  Tokens multiplicity = 1;
};

struct OutputArc {
  PlaceId place;
  Tokens multiplicity = 1;
};

struct InputGate {
  Predicate enabled;   // must hold for the activity to be enabled
  MarkingFn function;  // applied when the activity completes (may be null)
};

/// One probabilistic case of an activity.
struct Case {
  double probability = 1.0;
  std::vector<OutputArc> output_arcs;
};

struct Activity {
  std::string name;
  stats::Distribution delay;
  /// Internal: whether add_case() has replaced the implicit default case.
  bool explicit_cases = false;
  std::vector<InputArc> input_arcs;
  std::vector<InputGate> input_gates;
  std::vector<Case> cases;  // at least one; probabilities sum to 1
};

/// Builder + immutable description of a SAN.
class SanModel {
 public:
  PlaceId add_place(std::string name, Tokens initial = 0);

  /// Add a timed activity with the given delay distribution.
  ActivityId add_timed_activity(std::string name, stats::Distribution delay);

  /// Input arc: requires (and consumes) `multiplicity` tokens in `place`.
  void add_input_arc(ActivityId a, PlaceId p, Tokens multiplicity = 1);

  /// Output arc on case `c` (default case 0): deposits tokens on firing.
  void add_output_arc(ActivityId a, PlaceId p, Tokens multiplicity = 1,
                      std::size_t case_index = 0);

  void add_input_gate(ActivityId a, Predicate enabled, MarkingFn function = nullptr);

  /// Append a probabilistic case; returns its index. Every activity starts
  /// with one implicit case of probability 1; the first add_case() call
  /// replaces that default (so probabilities you provide must sum to 1
  /// across all added cases).
  std::size_t add_case(ActivityId a, double probability);

  [[nodiscard]] std::size_t place_count() const noexcept { return places_.size(); }
  [[nodiscard]] std::size_t activity_count() const noexcept { return activities_.size(); }
  [[nodiscard]] const Place& place(PlaceId p) const { return places_.at(p); }
  [[nodiscard]] const Activity& activity(ActivityId a) const { return activities_.at(a); }

  [[nodiscard]] Marking initial_marking() const;

  /// Structural validation: case probabilities sum to ~1, arcs reference
  /// valid places, every activity has at least one case. Throws
  /// std::invalid_argument on violation.
  void validate() const;

 private:
  Activity& mutable_activity(ActivityId a);
  std::vector<Place> places_;
  std::vector<Activity> activities_;
};

}  // namespace divsec::san
