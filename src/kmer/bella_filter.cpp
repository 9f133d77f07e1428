#include "kmer/bella_filter.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace gnb::kmer {

double binomial_pmf(std::uint64_t n, double p, std::uint64_t m) {
  if (m > n) return 0.0;
  if (p <= 0.0) return m == 0 ? 1.0 : 0.0;
  if (p >= 1.0) return m == n ? 1.0 : 0.0;
  const auto dn = static_cast<double>(n);
  const auto dm = static_cast<double>(m);
  const double log_pmf = std::lgamma(dn + 1) - std::lgamma(dm + 1) - std::lgamma(dn - dm + 1) +
                         dm * std::log(p) + (dn - dm) * std::log1p(-p);
  return std::exp(log_pmf);
}

double binomial_upper_tail(std::uint64_t n, double p, std::uint64_t m) {
  double tail = 0.0;
  for (std::uint64_t i = m; i <= n; ++i) tail += binomial_pmf(n, p, i);
  return std::min(tail, 1.0);
}

ReliableBounds reliable_bounds(const BellaParams& params) {
  GNB_THROW_IF(!(params.coverage > 0), "coverage must be positive, got " << params.coverage);
  GNB_THROW_IF(!(params.error_rate >= 0 && params.error_rate < 1),
               "error rate must be in [0, 1), got " << params.error_rate);
  ReliableBounds bounds;
  bounds.p_correct = std::pow(1.0 - params.error_rate, params.k);
  const auto d = static_cast<std::uint64_t>(std::llround(params.coverage));

  // Lower bound: multiplicity 1 k-mers are overwhelmingly sequencing errors
  // (each error produces up to k novel k-mers); BELLA keeps m >= 2.
  bounds.lo = 2;

  // Upper bound: smallest m with P[X >= m] below the tail-mass cut, i.e.
  // a single-copy genomic k-mer almost never reaches multiplicity m; any
  // k-mer that does is a repeat and would blow up candidate generation.
  std::uint64_t hi = d;
  for (std::uint64_t m = 2; m <= 4 * d + 4; ++m) {
    if (binomial_upper_tail(d, bounds.p_correct, m) < params.tail_mass) {
      hi = m;
      break;
    }
  }
  bounds.hi = std::max<std::uint64_t>(hi, bounds.lo);
  return bounds;
}

}  // namespace gnb::kmer
