#include "stats/doe.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace divsec::stats {

namespace {

/// Letter word ("ACD") -> factor bitmask. Validates letters are in range.
std::uint32_t word_to_mask(const std::string& word, std::size_t total_factors) {
  std::uint32_t mask = 0;
  for (char c : word) {
    if (c < 'A' || c >= static_cast<char>('A' + total_factors))
      throw std::invalid_argument("effect word letter out of range: " + word);
    mask |= 1u << (c - 'A');
  }
  return mask;
}

std::string mask_to_word(std::uint32_t mask) {
  std::string w;
  for (int b = 0; b < 32; ++b)
    if (mask & (1u << b)) w.push_back(static_cast<char>('A' + b));
  return w;
}

}  // namespace

FactorSpace::FactorSpace(std::vector<Factor> factors) : factors_(std::move(factors)) {
  for (const auto& f : factors_) {
    if (f.levels.empty())
      throw std::invalid_argument("FactorSpace: factor '" + f.name + "' has no levels");
  }
}

std::size_t FactorSpace::configuration_count() const noexcept {
  std::size_t n = 1;
  for (const auto& f : factors_) n *= f.levels.size();
  return n;
}

std::vector<int> FactorSpace::decode(std::size_t flat_index) const {
  if (flat_index >= configuration_count())
    throw std::out_of_range("FactorSpace::decode: index out of range");
  std::vector<int> levels(factors_.size());
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    const std::size_t radix = factors_[i].levels.size();
    levels[i] = static_cast<int>(flat_index % radix);
    flat_index /= radix;
  }
  return levels;
}

std::size_t FactorSpace::encode(std::span<const int> levels) const {
  if (levels.size() != factors_.size())
    throw std::invalid_argument("FactorSpace::encode: wrong arity");
  std::size_t idx = 0;
  for (std::size_t i = factors_.size(); i-- > 0;) {
    const auto radix = static_cast<int>(factors_[i].levels.size());
    if (levels[i] < 0 || levels[i] >= radix)
      throw std::out_of_range("FactorSpace::encode: level out of range");
    idx = idx * static_cast<std::size_t>(radix) + static_cast<std::size_t>(levels[i]);
  }
  return idx;
}

TwoLevelDesign full_factorial_2k(std::vector<std::string> factor_names) {
  const std::size_t k = factor_names.size();
  if (k == 0 || k > 24)
    throw std::invalid_argument("full_factorial_2k: need 1..24 factors");
  TwoLevelDesign d;
  d.factor_names = std::move(factor_names);
  const std::size_t n = std::size_t{1} << k;
  d.runs.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<int> run(k);
    for (std::size_t f = 0; f < k; ++f) run[f] = (r >> f) & 1 ? +1 : -1;
    d.runs.push_back(std::move(run));
  }
  return d;
}

TwoLevelDesign fractional_factorial(std::vector<std::string> base_factor_names,
                                    std::span<const Generator> generators) {
  const std::size_t kb = base_factor_names.size();
  if (kb == 0) throw std::invalid_argument("fractional_factorial: no base factors");
  TwoLevelDesign d = full_factorial_2k(base_factor_names);
  for (const auto& g : generators) {
    const std::uint32_t mask = word_to_mask(g.word, kb);
    if (mask == 0)
      throw std::invalid_argument("fractional_factorial: empty generator word");
    d.factor_names.push_back(g.factor);
    for (auto& run : d.runs) {
      int prod = 1;
      for (std::size_t f = 0; f < kb; ++f)
        if (mask & (1u << f)) prod *= run[f];
      run.push_back(prod);
    }
  }
  return d;
}

AliasStructure alias_structure(std::size_t base_factors,
                               std::span<const Generator> generators) {
  const std::size_t total = base_factors + generators.size();
  if (total > 26) throw std::invalid_argument("alias_structure: > 26 factors");
  AliasStructure as;
  // Each generator g_i contributes the defining word (added factor letter)
  // * (base word). The defining relation is the XOR-closure of these.
  std::vector<std::uint32_t> gens;
  for (std::size_t i = 0; i < generators.size(); ++i) {
    const std::uint32_t base_mask = word_to_mask(generators[i].word, base_factors);
    const std::uint32_t added = 1u << (base_factors + i);
    gens.push_back(base_mask | added);
  }
  // Enumerate the subgroup generated by `gens` (2^p elements incl. I).
  std::vector<std::uint32_t> subgroup;
  const std::size_t p = gens.size();
  for (std::size_t sel = 1; sel < (std::size_t{1} << p); ++sel) {
    std::uint32_t w = 0;
    for (std::size_t i = 0; i < p; ++i)
      if (sel & (std::size_t{1} << i)) w ^= gens[i];
    subgroup.push_back(w);
  }
  std::sort(subgroup.begin(), subgroup.end());
  subgroup.erase(std::unique(subgroup.begin(), subgroup.end()), subgroup.end());
  int res = 0;
  for (std::uint32_t w : subgroup) {
    const int len = std::popcount(w);
    if (res == 0 || len < res) res = len;
    as.defining_relation.push_back(mask_to_word(w));
  }
  as.resolution = res;
  std::sort(as.defining_relation.begin(), as.defining_relation.end(),
            [](const auto& a, const auto& b) {
              return a.size() != b.size() ? a.size() < b.size() : a < b;
            });
  return as;
}

namespace {

/// Sylvester doubling: Hadamard matrices of order 2^m.
std::vector<std::vector<int>> sylvester_hadamard(std::size_t n) {
  std::vector<std::vector<int>> h{{1}};
  while (h.size() < n) {
    const std::size_t m = h.size();
    std::vector<std::vector<int>> next(2 * m, std::vector<int>(2 * m));
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < m; ++j) {
        next[i][j] = h[i][j];
        next[i][j + m] = h[i][j];
        next[i + m][j] = h[i][j];
        next[i + m][j + m] = -h[i][j];
      }
    h = std::move(next);
  }
  return h;
}

/// Quadratic-residue character chi(a) mod prime p: 0 if a=0, +1 if QR, -1 else.
int legendre(long long a, long long p) {
  a %= p;
  if (a < 0) a += p;
  if (a == 0) return 0;
  // Euler's criterion by fast exponentiation.
  long long r = 1, b = a, e = (p - 1) / 2;
  while (e > 0) {
    if (e & 1) r = (r * b) % p;
    b = (b * b) % p;
    e >>= 1;
  }
  return r == 1 ? 1 : -1;
}

/// Paley construction I: Hadamard matrix of order p+1 for prime p = 3 mod 4.
std::vector<std::vector<int>> paley_hadamard(std::size_t n) {
  const long long p = static_cast<long long>(n) - 1;
  // H = I + C where C = [[0, e^T], [-e, Q]], Q_ij = chi(i - j).
  std::vector<std::vector<int>> h(n, std::vector<int>(n));
  h[0][0] = 1;
  for (std::size_t j = 1; j < n; ++j) h[0][j] = 1;
  for (std::size_t i = 1; i < n; ++i) h[i][0] = -1;
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 1; j < n; ++j)
      h[i][j] = (i == j) ? 1
                         : legendre(static_cast<long long>(i) - static_cast<long long>(j), p);
  return h;
}

}  // namespace

TwoLevelDesign plackett_burman(std::vector<std::string> factor_names) {
  const std::size_t k = factor_names.size();
  if (k == 0) throw std::invalid_argument("plackett_burman: no factors");
  static constexpr std::size_t kSizes[] = {4, 8, 12, 16, 20, 24, 32};
  std::size_t n = 0;
  for (std::size_t s : kSizes)
    if (s > k) {
      n = s;
      break;
    }
  if (n == 0) throw std::invalid_argument("plackett_burman: too many factors (max 31)");

  std::vector<std::vector<int>> h;
  if ((n & (n - 1)) == 0) {
    h = sylvester_hadamard(n);
  } else {
    h = paley_hadamard(n);  // 12, 20, 24 = p+1 for p = 11, 19, 23 (all 3 mod 4)
  }
  // Normalize rows so column 0 is all +1, then drop column 0; the remaining
  // n-1 columns are mutually orthogonal and balanced.
  TwoLevelDesign d;
  d.factor_names = std::move(factor_names);
  d.runs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int s = h[i][0];
    std::vector<int> run(k);
    for (std::size_t f = 0; f < k; ++f) run[f] = s * h[i][f + 1];
    d.runs.push_back(std::move(run));
  }
  return d;
}

double estimate_effect(const TwoLevelDesign& design, std::span<const double> responses,
                       const std::string& word) {
  if (responses.size() != design.run_count())
    throw std::invalid_argument("estimate_effect: responses/run count mismatch");
  const std::uint32_t mask = word_to_mask(word, design.factor_count());
  if (mask == 0) throw std::invalid_argument("estimate_effect: empty word");
  double acc = 0.0;
  for (std::size_t r = 0; r < design.run_count(); ++r) {
    int sign = 1;
    for (std::size_t f = 0; f < design.factor_count(); ++f)
      if (mask & (1u << f)) sign *= design.runs[r][f];
    acc += sign * responses[r];
  }
  return 2.0 * acc / static_cast<double>(design.run_count());
}

std::vector<double> main_effects(const TwoLevelDesign& design,
                                 std::span<const double> responses) {
  std::vector<double> out;
  out.reserve(design.factor_count());
  for (std::size_t f = 0; f < design.factor_count(); ++f)
    out.push_back(estimate_effect(design, responses,
                                  std::string(1, static_cast<char>('A' + f))));
  return out;
}

}  // namespace divsec::stats
