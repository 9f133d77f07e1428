#pragma once
// K-mer extraction: slide a window of length k over a read, one base at a
// time (paper §2), emitting the canonical k-mer for every window that
// contains no 'N'.

#include <cstdint>
#include <span>

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
/// length k in `read`, in position order. Bases come straight from the
/// packed words; the reverse complement rolls along with the forward
/// k-mer, so a window costs a few shifts and one compare, and the sink
/// inlines into the loop.
template <class Sink>
void for_each_kmer(const seq::Read& read, std::uint32_t k, Sink&& sink) {
  GNB_CHECK_MSG(valid_k(k), "k out of range: " << k);
  const std::size_t length = read.sequence.size();
  if (length < k) return;
  const std::span<const std::uint64_t> words = read.sequence.words();
  const std::span<const std::uint32_t> ns = read.sequence.n_positions();

  const std::uint64_t mask = k == 32 ? ~0ULL : ((1ULL << (2 * k)) - 1);
  const unsigned oldest = 2 * (k - 1);  // bit offset of the window's first base
  std::uint64_t fwd = 0;                // most-recent base in the low bits
  std::uint64_t rc = 0;                 // its reverse complement
  std::uint32_t valid = 0;              // length of the current N-free run
  std::size_t next_n = 0;               // index of the next N in `ns`
  std::size_t n_at = ns.empty() ? length : ns[0];
  for (std::size_t i = 0; i < length; ++i) {
    if (i == n_at) {
      valid = 0;
      n_at = ++next_n < ns.size() ? ns[next_n] : length;
      continue;
    }
    const auto code = static_cast<std::uint8_t>((words[i >> 5] >> ((i & 31) * 2)) & 3);
    fwd = ((fwd << 2) | code) & mask;
    rc = (rc >> 2) | (static_cast<std::uint64_t>(3 - code) << oldest);
    if (++valid < k) continue;
    const bool reversed = rc < fwd;
    sink(Kmer(reversed ? rc : fwd, k),
         Occurrence{read.id, static_cast<std::uint32_t>(i + 1 - k), reversed});
  }
}

}  // namespace gnb::kmer
