#include "core/report.h"

#include <span>
#include <sstream>

#include "core/ratio_curve.h"
#include "util/file.h"

namespace divsec::core {

namespace {

/// CSV-escape a field (quote when it contains a comma/quote/newline).
std::string escape(const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

std::string measurement_csv(const MeasurementTable& table,
                            double censor_warn_fraction) {
  std::ostringstream os;
  for (std::size_t f = 0; f < table.space.factor_count(); ++f)
    os << escape(table.space.factor(f).name) << ",";
  os << "success_prob,tta_mean,tta_censored,tta_rmean,tta_median,"
        "ttsf_mean,ttsf_censored,ttsf_rmean,ttsf_median,"
        "final_ratio_mean,ratio_t25,ratio_t50,ratio_t75,ratio_auc,"
        "censor_warning\n";
  const auto median_cell = [](const std::optional<double>& m) {
    return m ? std::to_string(*m) : std::string{};
  };
  // Streamed mean compromised-ratio curve, surfaced as quartile-of-horizon
  // samples plus the normalized area under the curve (1/T ∫ c(t) dt,
  // trapezoidal over the bin grid anchored at c(0) = 0). Cells without a
  // curve (SAN engine) leave the fields empty.
  const auto curve_cells = [](const IndicatorSummary& s, std::ostream& o) {
    if (s.ratio_curve.empty()) {
      o << ",,,,";
      return;
    }
    const std::span<const double> curve(s.ratio_curve);
    const double T = s.horizon_hours;
    double area = 0.0;
    double prev = 0.0;
    for (const double v : curve) {
      area += 0.5 * (prev + v);
      prev = v;
    }
    area /= static_cast<double>(curve.size());
    o << curve_value_at(curve, T, 0.25 * T) << ","
      << curve_value_at(curve, T, 0.50 * T) << ","
      << curve_value_at(curve, T, 0.75 * T) << "," << area << ",";
  };
  for (std::size_t c = 0; c < table.configuration_count(); ++c) {
    const auto levels = table.space.decode(c);
    for (std::size_t f = 0; f < table.space.factor_count(); ++f)
      os << escape(table.space.factor(f).levels[static_cast<std::size_t>(levels[f])])
         << ",";
    const auto& s = table.summaries[c];
    os << s.attack_success_probability() << "," << s.tta.mean() << ","
       << s.tta_censored << "," << s.tta_event.restricted_mean << ","
       << median_cell(s.tta_event.median) << "," << s.ttsf.mean() << ","
       << s.ttsf_censored << "," << s.ttsf_event.restricted_mean << ","
       << median_cell(s.ttsf_event.median) << "," << s.final_ratio.mean() << ",";
    curve_cells(s, os);
    // Flag cells whose censored-at-horizon means are too biased to read
    // on their own: use the rmean/median columns instead.
    std::string warn;
    if (s.tta_censor_fraction() > censor_warn_fraction) warn = "tta";
    if (s.ttsf_censor_fraction() > censor_warn_fraction)
      warn += warn.empty() ? "ttsf" : ";ttsf";
    os << warn << "\n";
  }
  return os.str();
}

std::string anova_csv(const stats::AnovaTable& table) {
  std::ostringstream os;
  os << "effect,ss,df,ms,f,p,eta2\n";
  const auto row = [&os](const stats::AnovaEffect& e, bool with_f) {
    os << escape(e.name) << "," << e.ss << "," << e.df << "," << e.ms << ",";
    if (with_f)
      os << e.f << "," << e.p_value;
    else
      os << ",";
    os << "," << e.eta_squared << "\n";
  };
  for (const auto& e : table.effects) row(e, true);
  row(table.error, false);
  row(table.total, false);
  return os.str();
}

std::string assessment_markdown(const Assessment& assessment,
                                const std::string& title) {
  std::ostringstream os;
  os << "# " << title << "\n\n";
  const auto table_md = [&os](const stats::AnovaTable& t, const char* heading) {
    os << "## " << heading << "\n\n";
    os << "| Effect | SS | df | MS | F | p | eta^2 |\n";
    os << "|---|---|---|---|---|---|---|\n";
    for (const auto& e : t.effects) {
      os << "| " << e.name << " | " << e.ss << " | " << e.df << " | " << e.ms
         << " | " << e.f << " | " << e.p_value << " | " << e.eta_squared
         << " |\n";
    }
    os << "| Error | " << t.error.ss << " | " << t.error.df << " | " << t.error.ms
       << " | - | - | " << t.error.eta_squared << " |\n";
    os << "| Total | " << t.total.ss << " | " << t.total.df << " | - | - | - | 1 |\n\n";
  };
  table_md(assessment.success_anova, "Attack success probability");
  table_md(assessment.tta_anova, "Time-To-Attack");
  table_md(assessment.ttsf_anova, "Time-To-Security-Failure");

  os << "## Component ranking (success-probability variance share)\n\n";
  for (const auto& e : assessment.ranking)
    os << "1. **" << e.name << "** — eta^2 = " << e.eta_squared
       << ", p = " << e.p_value << "\n";
  os << "\n## Recommended for diversification\n\n";
  if (assessment.recommended.empty()) {
    os << "_None met the thresholds._\n";
  } else {
    for (const auto& r : assessment.recommended) os << "- " << r << "\n";
  }
  return os.str();
}

void save_to_file(const std::string& path, const std::string& content) {
  util::write_file(path, content);
}

}  // namespace divsec::core
