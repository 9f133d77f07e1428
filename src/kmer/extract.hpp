#pragma once
// K-mer extraction: slide a window of length k over a read, one base at a
// time (paper §2), emitting the canonical k-mer for every window that
// contains no 'N'.

#include <cstdint>
#include <vector>

#include "kmer/kmer.hpp"
#include "seq/read_store.hpp"

namespace gnb::kmer {

/// One k-mer occurrence inside a read.
struct Occurrence {
  seq::ReadId read = seq::kInvalidRead;
  std::uint32_t pos = 0;   // offset of the window start in the read
  bool reversed = false;   // canonical form is the reverse complement
};

/// Invoke `sink(canonical_kmer, occurrence)` for every N-free window of
/// length k in `read`, in position order. The reverse complement rolls
/// along with the forward k-mer, so a window costs a few shifts and one
/// compare, and the sink inlines into the loop.
template <class Sink>
void for_each_kmer(const seq::Read& read, std::uint32_t k, Sink&& sink) {
  GNB_CHECK_MSG(valid_k(k), "k out of range: " << k);
  const std::vector<std::uint8_t> codes = read.sequence.unpack();
  if (codes.size() < k) return;

  const std::uint64_t mask = k == 32 ? ~0ULL : ((1ULL << (2 * k)) - 1);
  const unsigned oldest = 2 * (k - 1);  // bit offset of the window's first base
  std::uint64_t fwd = 0;                // most-recent base in the low bits
  std::uint64_t rc = 0;                 // its reverse complement
  std::uint32_t valid = 0;              // length of the current N-free run
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const std::uint8_t code = codes[i];
    if (code == seq::kN) {
      valid = 0;
      continue;
    }
    fwd = ((fwd << 2) | code) & mask;
    rc = (rc >> 2) | (static_cast<std::uint64_t>(3 - code) << oldest);
    if (++valid < k) continue;
    const bool reversed = rc < fwd;
    sink(Kmer(reversed ? rc : fwd, k),
         Occurrence{read.id, static_cast<std::uint32_t>(i + 1 - k), reversed});
  }
}

}  // namespace gnb::kmer
