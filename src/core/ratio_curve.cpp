#include "core/ratio_curve.h"

#include <algorithm>
#include <stdexcept>

namespace divsec::core {

RatioCurveAccumulator::RatioCurveAccumulator(double horizon, std::size_t bins)
    : horizon_(horizon) {
  if (!(horizon > 0.0))
    throw std::invalid_argument("RatioCurveAccumulator: horizon must be > 0");
  if (bins == 0)
    throw std::invalid_argument("RatioCurveAccumulator: need >= 1 bin");
  sums_.assign(bins, 0);
}

void RatioCurveAccumulator::add(std::span<const std::uint32_t> counts,
                                std::uint64_t scale) {
  if (sums_.empty())
    throw std::logic_error(
        "RatioCurveAccumulator::add: default-constructed state");
  if (counts.size() != sums_.size())
    throw std::invalid_argument("RatioCurveAccumulator::add: bin mismatch");
  if (scale == 0)
    throw std::invalid_argument("RatioCurveAccumulator::add: zero scale");
  if (scale_ == 0)
    scale_ = scale;
  else if (scale != scale_)
    throw std::invalid_argument("RatioCurveAccumulator::add: scale mismatch");
  ++n_;
  for (std::size_t k = 0; k < sums_.size(); ++k) sums_[k] += counts[k];
}

void RatioCurveAccumulator::merge(const RatioCurveAccumulator& other) {
  if (other.n_ == 0 && other.sums_.empty()) return;
  if (n_ == 0 && sums_.empty()) {
    *this = other;
    return;
  }
  if (other.horizon_ != horizon_ || other.sums_.size() != sums_.size())
    throw std::invalid_argument("RatioCurveAccumulator::merge: grid mismatch");
  if (other.n_ == 0) return;
  if (n_ == 0) {
    scale_ = other.scale_;
  } else if (other.scale_ != scale_) {
    throw std::invalid_argument("RatioCurveAccumulator::merge: scale mismatch");
  }
  n_ += other.n_;
  for (std::size_t k = 0; k < sums_.size(); ++k) sums_[k] += other.sums_[k];
}

std::vector<double> RatioCurveAccumulator::mean_curve() const {
  if (n_ == 0 || scale_ == 0) return {};
  std::vector<double> curve(sums_.size());
  const double denom = static_cast<double>(n_) * static_cast<double>(scale_);
  for (std::size_t k = 0; k < sums_.size(); ++k)
    curve[k] = static_cast<double>(sums_[k]) / denom;
  return curve;
}

RatioCurveAccumulator::State RatioCurveAccumulator::state() const {
  return {horizon_, scale_, n_, sums_};
}

RatioCurveAccumulator RatioCurveAccumulator::from_state(const State& s) {
  RatioCurveAccumulator out;
  if (s.sums.empty()) {
    if (s.n != 0 || s.scale != 0)
      throw std::invalid_argument(
          "RatioCurveAccumulator::from_state: counts without a bin grid");
    return out;
  }
  if (!(s.horizon > 0.0))
    throw std::invalid_argument(
        "RatioCurveAccumulator::from_state: horizon must be > 0");
  if (s.n > 0 && s.scale == 0)
    throw std::invalid_argument(
        "RatioCurveAccumulator::from_state: observations without a scale");
  for (const std::uint64_t sum : s.sums)
    if (sum > s.n * s.scale)
      throw std::invalid_argument(
          "RatioCurveAccumulator::from_state: bin sum exceeds n x scale");
  out.horizon_ = s.horizon;
  out.scale_ = s.scale;
  out.n_ = s.n;
  out.sums_ = s.sums;
  return out;
}

std::vector<double> curve_bin_edges(double horizon, std::size_t bins) {
  std::vector<double> edges(bins);
  for (std::size_t k = 0; k < bins; ++k)
    edges[k] = horizon * static_cast<double>(k + 1) / static_cast<double>(bins);
  return edges;
}

double curve_value_at(std::span<const double> curve, double horizon, double t) {
  if (curve.empty() || t <= 0.0) return 0.0;
  const std::size_t bins = curve.size();
  const double width = horizon / static_cast<double>(bins);
  if (t >= horizon) return curve.back();
  // Bin k's value sits at its upper edge (k + 1) * width; interpolate
  // between the surrounding edges (edge 0 anchors at c(0) = 0).
  const std::size_t k = static_cast<std::size_t>(t / width);
  const double lo = k == 0 ? 0.0 : curve[k - 1];
  const double hi = curve[std::min(k, bins - 1)];
  const double t_lo = static_cast<double>(k) * width;
  return lo + (hi - lo) * ((t - t_lo) / width);
}

}  // namespace divsec::core
