#include "divers/aslr.h"

#include <cmath>
#include <stdexcept>

namespace divsec::divers {

AslrModel::AslrModel(int entropy_bits) : bits_(entropy_bits) {
  if (entropy_bits < 0 || entropy_bits > 48)
    throw std::invalid_argument("AslrModel: entropy_bits must be in [0, 48]");
}

double AslrModel::per_attempt_success() const noexcept {
  return std::pow(2.0, -bits_);
}

double AslrModel::success_within(std::uint64_t attempts) const noexcept {
  const double p = per_attempt_success();
  // 1 - (1-p)^n computed stably for tiny p.
  return -std::expm1(static_cast<double>(attempts) * std::log1p(-p));
}

double AslrModel::expected_attempts() const noexcept {
  return std::pow(2.0, bits_);
}

}  // namespace divsec::divers
