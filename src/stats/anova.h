// anova.h — fixed-effects ANalysis Of VAriance.
//
// Step 3 of the paper: "allocate the variability of the security
// indicators ... to the component(s) responsible for such variability."
// We implement balanced N-way factorial ANOVA with all interaction terms, reporting for each effect the sum of squares, degrees
// of freedom, F statistic, p-value, and eta^2 (the variance share the
// paper's assessment step ranks components by).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace divsec::stats {

/// One row of an ANOVA table.
struct AnovaEffect {
  std::string name;       // e.g. "OS", "OS:Firewall", "Error", "Total"
  double ss = 0.0;        // sum of squares
  std::size_t df = 0;     // degrees of freedom
  double ms = 0.0;        // mean square (ss/df)
  double f = 0.0;         // F statistic vs error (0 when undefined)
  double p_value = 1.0;   // upper-tail F probability
  double eta_squared = 0.0;  // ss / ss_total: variance share
};

struct AnovaTable {
  std::vector<AnovaEffect> effects;  // factorial effects, sorted as produced
  AnovaEffect error;
  AnovaEffect total;

  /// Lookup an effect row by name; throws std::out_of_range if absent.
  [[nodiscard]] const AnovaEffect& effect(const std::string& name) const;
  /// Render as an aligned text table (for benches and reports).
  [[nodiscard]] std::string to_string() const;
};

/// Balanced N-way full-factorial ANOVA.
///
/// `levels[i]` is the number of levels of factor i; `cells` holds the
/// replicate observations for each cell, indexed mixed-radix with factor 0
/// fastest (the FactorSpace::decode convention). Every cell must have the
/// same replicate count r; r >= 2 is required for an error term (with
/// r == 1 the highest-order interaction is pooled into error).
/// `max_interaction_order` limits reported interactions (higher-order terms
/// are pooled into error).
[[nodiscard]] AnovaTable factorial_anova(std::span<const std::size_t> levels,
                                         std::span<const std::string> factor_names,
                                         std::span<const std::vector<double>> cells,
                                         std::size_t max_interaction_order = 2);

}  // namespace divsec::stats
