#include "stats/anova.h"

#include <bit>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

#include "stats/special.h"

namespace divsec::stats {

namespace {

/// Decode flat cell index into per-factor level indices (factor 0 fastest).
void decode_cell(std::size_t flat, std::span<const std::size_t> levels,
                 std::span<std::size_t> out) {
  for (std::size_t i = 0; i < levels.size(); ++i) {
    out[i] = flat % levels[i];
    flat /= levels[i];
  }
}

/// Project full level coordinates onto the factors in `mask`, producing a
/// mixed-radix index over just those factors (ascending factor order).
std::size_t project(std::span<const std::size_t> coords,
                    std::span<const std::size_t> levels, std::uint32_t mask) {
  std::size_t idx = 0;
  for (std::size_t i = levels.size(); i-- > 0;) {
    if (mask & (1u << i)) idx = idx * levels[i] + coords[i];
  }
  return idx;
}

std::size_t projected_size(std::span<const std::size_t> levels, std::uint32_t mask) {
  std::size_t n = 1;
  for (std::size_t i = 0; i < levels.size(); ++i)
    if (mask & (1u << i)) n *= levels[i];
  return n;
}

std::string effect_name(std::uint32_t mask, std::span<const std::string> names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (mask & (1u << i)) {
      if (!out.empty()) out += ":";
      out += names[i];
    }
  }
  return out;
}

void finalize(AnovaEffect& e, double ms_error, double df_error, double ss_total) {
  e.ms = e.df > 0 ? e.ss / static_cast<double>(e.df) : 0.0;
  e.eta_squared = ss_total > 0.0 ? e.ss / ss_total : 0.0;
  if (e.df > 0 && ms_error > 0.0 && df_error > 0.0) {
    e.f = e.ms / ms_error;
    e.p_value = f_sf(e.f, static_cast<double>(e.df), df_error);
  } else {
    e.f = 0.0;
    e.p_value = 1.0;
  }
}

}  // namespace

const AnovaEffect& AnovaTable::effect(const std::string& name) const {
  for (const auto& e : effects)
    if (e.name == name) return e;
  if (name == "Error") return error;
  if (name == "Total") return total;
  throw std::out_of_range("AnovaTable: no effect named '" + name + "'");
}

std::string AnovaTable::to_string() const {
  std::ostringstream os;
  os << std::left << std::setw(28) << "Effect" << std::right << std::setw(14) << "SS"
     << std::setw(7) << "df" << std::setw(14) << "MS" << std::setw(11) << "F"
     << std::setw(12) << "p" << std::setw(9) << "eta^2" << "\n";
  auto row = [&os](const AnovaEffect& e, bool with_f) {
    os << std::left << std::setw(28) << e.name << std::right << std::fixed
       << std::setprecision(4) << std::setw(14) << e.ss << std::setw(7) << e.df
       << std::setw(14) << e.ms;
    if (with_f) {
      os << std::setw(11) << e.f << std::setw(12) << std::setprecision(6) << e.p_value;
    } else {
      os << std::setw(11) << "-" << std::setw(12) << "-";
    }
    os << std::setw(9) << std::setprecision(3) << e.eta_squared << "\n";
  };
  for (const auto& e : effects) row(e, true);
  row(error, false);
  row(total, false);
  return os.str();
}

AnovaTable factorial_anova(std::span<const std::size_t> levels,
                           std::span<const std::string> factor_names,
                           std::span<const std::vector<double>> cells,
                           std::size_t max_interaction_order) {
  const std::size_t k = levels.size();
  if (k == 0 || k > 16) throw std::invalid_argument("factorial_anova: need 1..16 factors");
  if (factor_names.size() != k)
    throw std::invalid_argument("factorial_anova: names/levels size mismatch");
  std::size_t ncells = 1;
  for (std::size_t l : levels) {
    if (l < 2) throw std::invalid_argument("factorial_anova: every factor needs >= 2 levels");
    ncells *= l;
  }
  if (cells.size() != ncells)
    throw std::invalid_argument("factorial_anova: cell count mismatch");
  const std::size_t r = cells.front().size();
  if (r == 0) throw std::invalid_argument("factorial_anova: empty cell");
  for (const auto& c : cells)
    if (c.size() != r)
      throw std::invalid_argument("factorial_anova: unbalanced design (replicates differ)");

  const auto n_total = static_cast<double>(ncells * r);
  double grand = 0.0;
  for (const auto& c : cells)
    for (double x : c) grand += x;
  grand /= n_total;

  double ss_total = 0.0;
  for (const auto& c : cells)
    for (double x : c) ss_total += (x - grand) * (x - grand);

  // Mean tables for every factor subset: means[mask][projected index].
  const std::uint32_t full = (k == 32) ? ~0u : ((1u << k) - 1);
  std::vector<std::vector<double>> means(std::size_t{1} << k);
  std::vector<std::size_t> coords(k);
  for (std::uint32_t mask = 0; mask <= full; ++mask) {
    std::vector<double> sum(projected_size(levels, mask), 0.0);
    std::vector<std::size_t> cnt(sum.size(), 0);
    for (std::size_t c = 0; c < ncells; ++c) {
      decode_cell(c, levels, coords);
      const std::size_t pi = project(coords, levels, mask);
      for (double x : cells[c]) {
        sum[pi] += x;
        ++cnt[pi];
      }
    }
    for (std::size_t i = 0; i < sum.size(); ++i) sum[i] /= static_cast<double>(cnt[i]);
    means[mask] = std::move(sum);
    if (mask == full) break;  // avoid overflow when k == 32
  }

  // Effect sums of squares by Moebius inclusion-exclusion over mean tables.
  struct RawEffect {
    std::uint32_t mask;
    double ss;
    std::size_t df;
  };
  std::vector<RawEffect> raw;
  for (std::uint32_t mask = 1; mask <= full; ++mask) {
    const std::size_t cells_s = projected_size(levels, mask);
    double ss = 0.0;
    // Enumerate the level combinations of the factors in `mask` through the
    // projected index of the FULL-coordinate enumeration restricted to mask.
    // Walk each projected cell once by iterating its own mixed radix.
    std::vector<std::size_t> sub_coords(k, 0);
    for (std::size_t pi = 0; pi < cells_s; ++pi) {
      // Decode pi into coordinates of the masked factors.
      std::size_t rem = pi;
      for (std::size_t i = 0; i < k; ++i) {
        if (mask & (1u << i)) {
          sub_coords[i] = rem % levels[i];
          rem /= levels[i];
        } else {
          sub_coords[i] = 0;
        }
      }
      // Inclusion-exclusion over subsets T of mask.
      double e = 0.0;
      std::uint32_t t = mask;
      const int sbits = std::popcount(mask);
      for (;;) {
        const int tbits = std::popcount(t);
        const double sign = ((sbits - tbits) % 2 == 0) ? 1.0 : -1.0;
        const double m = (t == 0) ? grand : means[t][project(sub_coords, levels, t)];
        e += sign * m;
        if (t == 0) break;
        t = (t - 1) & mask;
      }
      ss += e * e;
    }
    double mult = static_cast<double>(r);
    for (std::size_t i = 0; i < k; ++i)
      if (!(mask & (1u << i))) mult *= static_cast<double>(levels[i]);
    std::size_t df = 1;
    for (std::size_t i = 0; i < k; ++i)
      if (mask & (1u << i)) df *= levels[i] - 1;
    raw.push_back({mask, ss * mult, df});
    if (mask == full) break;
  }

  // Pure (replication) error.
  double ss_effects_all = 0.0;
  for (const auto& e : raw) ss_effects_all += e.ss;
  double ss_error = ss_total - ss_effects_all;
  if (ss_error < 0.0) ss_error = 0.0;  // numerical guard
  std::size_t df_error = ncells * (r - 1);

  // Pool interactions above max_interaction_order into error.
  AnovaTable t;
  for (const auto& e : raw) {
    if (static_cast<std::size_t>(std::popcount(e.mask)) > max_interaction_order) {
      ss_error += e.ss;
      df_error += e.df;
      continue;
    }
    AnovaEffect eff;
    eff.name = effect_name(e.mask, factor_names);
    eff.ss = e.ss;
    eff.df = e.df;
    t.effects.push_back(eff);
  }
  if (df_error == 0)
    throw std::invalid_argument(
        "factorial_anova: no error degrees of freedom; add replicates or lower "
        "max_interaction_order");

  t.error.name = "Error";
  t.error.ss = ss_error;
  t.error.df = df_error;
  t.error.ms = ss_error / static_cast<double>(df_error);
  t.error.eta_squared = ss_total > 0.0 ? ss_error / ss_total : 0.0;
  t.total.name = "Total";
  t.total.ss = ss_total;
  t.total.df = ncells * r - 1;
  t.total.eta_squared = 1.0;
  for (auto& e : t.effects)
    finalize(e, t.error.ms, static_cast<double>(t.error.df), ss_total);
  return t;
}

}  // namespace divsec::stats
