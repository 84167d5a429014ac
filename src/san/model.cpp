#include "san/model.h"

#include <cmath>
#include <stdexcept>

namespace divsec::san {

PlaceId SanModel::add_place(std::string name, Tokens initial) {
  if (initial < 0) throw std::invalid_argument("add_place: negative initial tokens");
  places_.push_back(Place{std::move(name), initial});
  return places_.size() - 1;
}

ActivityId SanModel::add_timed_activity(std::string name, stats::Distribution delay) {
  Activity a;
  a.name = std::move(name);
  a.delay = std::move(delay);
  a.cases.push_back(Case{});  // implicit single case
  activities_.push_back(std::move(a));
  return activities_.size() - 1;
}

Activity& SanModel::mutable_activity(ActivityId a) {
  if (a >= activities_.size()) throw std::out_of_range("invalid activity id");
  return activities_[a];
}

void SanModel::add_input_arc(ActivityId a, PlaceId p, Tokens multiplicity) {
  if (p >= places_.size()) throw std::out_of_range("add_input_arc: invalid place");
  if (multiplicity < 1) throw std::invalid_argument("add_input_arc: multiplicity < 1");
  mutable_activity(a).input_arcs.push_back(InputArc{p, multiplicity});
}

void SanModel::add_output_arc(ActivityId a, PlaceId p, Tokens multiplicity,
                              std::size_t case_index) {
  if (p >= places_.size()) throw std::out_of_range("add_output_arc: invalid place");
  if (multiplicity < 1) throw std::invalid_argument("add_output_arc: multiplicity < 1");
  auto& act = mutable_activity(a);
  if (case_index >= act.cases.size())
    throw std::out_of_range("add_output_arc: invalid case index");
  act.cases[case_index].output_arcs.push_back(OutputArc{p, multiplicity});
}

void SanModel::add_input_gate(ActivityId a, Predicate enabled, MarkingFn function) {
  if (!enabled) throw std::invalid_argument("add_input_gate: null predicate");
  mutable_activity(a).input_gates.push_back(
      InputGate{std::move(enabled), std::move(function)});
}

std::size_t SanModel::add_case(ActivityId a, double probability) {
  if (!(probability >= 0.0 && probability <= 1.0))
    throw std::invalid_argument("add_case: probability must be in [0,1]");
  auto& act = mutable_activity(a);
  // The first explicit case replaces the implicit default; mixing arcs
  // attached to the implicit default with explicit cases is an error.
  if (!act.explicit_cases) {
    if (!act.cases[0].output_arcs.empty())
      throw std::logic_error(
          "add_case: arcs were already attached to the implicit default case of '" +
          act.name + "'; add cases before output arcs");
    act.explicit_cases = true;
    act.cases[0].probability = probability;
    return 0;
  }
  act.cases.push_back(Case{probability, {}});
  return act.cases.size() - 1;
}

Marking SanModel::initial_marking() const {
  Marking m(places_.size());
  for (PlaceId p = 0; p < places_.size(); ++p) m[p] = places_[p].initial;
  return m;
}

void SanModel::validate() const {
  if (activities_.empty()) throw std::invalid_argument("SanModel: no activities");
  for (const auto& a : activities_) {
    if (a.cases.empty())
      throw std::invalid_argument("SanModel: activity '" + a.name + "' has no cases");
    double psum = 0.0;
    for (const auto& c : a.cases) psum += c.probability;
    if (std::fabs(psum - 1.0) > 1e-9)
      throw std::invalid_argument("SanModel: case probabilities of '" + a.name +
                                  "' sum to " + std::to_string(psum) + ", expected 1");
    if (a.delay.mean() < 0.0)
      throw std::invalid_argument("SanModel: activity '" + a.name +
                                  "' has negative mean delay");
  }
}

}  // namespace divsec::san
