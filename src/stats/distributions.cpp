#include "stats/distributions.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace divsec::stats {

double sample_standard_normal(Rng& rng) noexcept {
  for (;;) {
    const double u = 2.0 * rng.uniform() - 1.0;
    const double v = 2.0 * rng.uniform() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

namespace {

double sample_one(const Deterministic& d, Rng&) { return d.value; }

double sample_one(const Exponential& d, Rng& rng) {
  // Inverse transform; 1 - uniform() is in (0, 1] so log() is finite.
  return -std::log(1.0 - rng.uniform()) / d.rate;
}

double sample_one(const Normal& d, Rng& rng) {
  return d.mean + d.sd * sample_standard_normal(rng);
}

}  // namespace

double Distribution::sample(Rng& rng) const {
  return std::visit([&rng](const auto& d) { return sample_one(d, rng); }, v_);
}

double Distribution::mean() const {
  struct V {
    double operator()(const Deterministic& d) const { return d.value; }
    double operator()(const Exponential& d) const { return 1.0 / d.rate; }
    double operator()(const Normal& d) const { return d.mean; }
  };
  return std::visit(V{}, v_);
}

double Distribution::variance() const {
  struct V {
    double operator()(const Deterministic&) const { return 0.0; }
    double operator()(const Exponential& d) const { return 1.0 / (d.rate * d.rate); }
    double operator()(const Normal& d) const { return d.sd * d.sd; }
  };
  return std::visit(V{}, v_);
}

std::string Distribution::to_string() const {
  std::ostringstream os;
  struct V {
    std::ostringstream& os;
    void operator()(const Deterministic& d) const { os << "Deterministic(" << d.value << ")"; }
    void operator()(const Exponential& d) const { os << "Exponential(rate=" << d.rate << ")"; }
    void operator()(const Normal& d) const { os << "Normal(" << d.mean << "," << d.sd << ")"; }
  };
  std::visit(V{os}, v_);
  return os.str();
}

void Distribution::validate() const {
  struct V {
    void operator()(const Deterministic&) const {}
    void operator()(const Exponential& d) const {
      if (!(d.rate > 0.0)) throw std::invalid_argument("Exponential: rate must be > 0");
    }
    void operator()(const Normal& d) const {
      if (d.sd < 0.0) throw std::invalid_argument("Normal: sd must be >= 0");
    }
  };
  std::visit(V{}, v_);
}

}  // namespace divsec::stats
