#pragma once
// BELLA-model reliable-k-mer bounds (Guidi et al. 2021).
//
// The paper sets the maximum retained k-mer frequency "according to the
// BELLA model", which "utilizes each dataset's particular sequencing
// coverage, error rate, and k" (§4). The model: an error-free k-mer
// instance survives with probability p = (1-e)^k, so a single-copy genomic
// k-mer's multiplicity across a depth-d dataset is ~ Binomial(d, p).
// K-mers seen once (likely sequencing errors) and k-mers far above the
// binomial's upper tail (likely genomic repeats) are discarded; the
// retained band [lo, hi] captures nearly all single-copy signal.

#include <cstdint>

namespace gnb::kmer {

struct ReliableBounds {
  std::uint64_t lo = 2;  // below: probable error k-mers
  std::uint64_t hi = 8;  // above: probable repeats
  double p_correct = 0;  // (1-e)^k, for reporting
};

struct BellaParams {
  double coverage = 30.0;    // sequencing depth d
  double error_rate = 0.15;  // per-base error rate e
  std::uint32_t k = 17;
  double tail_mass = 1e-3;   // binomial tail probability cut for hi
};

/// Compute the retained-multiplicity band for a dataset. Throws gnb::Error
/// unless coverage > 0 and error_rate is in [0, 1).
ReliableBounds reliable_bounds(const BellaParams& params);

/// Binomial PMF P[X = m] for X ~ Bin(n, p), numerically stable in logs.
double binomial_pmf(std::uint64_t n, double p, std::uint64_t m);

/// Upper tail P[X >= m].
double binomial_upper_tail(std::uint64_t n, double p, std::uint64_t m);

}  // namespace gnb::kmer
