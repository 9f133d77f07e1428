#pragma once
// 2-bit packed k-mers, k <= 32, with canonical form and rolling updates.
//
// Candidate-overlap discovery hinges on exact k-mer matching (paper §2);
// small k (order 10-17) is typical at long-read error rates. A k-mer and
// its reverse complement identify the same genomic locus, so counting and
// matching use the canonical (lexicographically smaller) form, remembering
// which strand produced it.

#include <cstdint>
#include <string>

#include "seq/alphabet.hpp"
#include "util/error.hpp"

namespace gnb::kmer {

/// Whether `k` is a supported k-mer length: [1, 32], so a k-mer packs into
/// one 64-bit word. Takes the unnarrowed value so a command-line argument
/// cannot wrap into range.
constexpr bool valid_k(std::uint64_t k) { return k >= 1 && k <= 32; }

/// Reject an out-of-range user-supplied k with a gnb::Error, before any work.
inline void check_k(std::uint64_t k) {
  GNB_THROW_IF(!valid_k(k), "k-mer length must be in [1, 32], got " << k);
}

/// A k-mer packed two bits per base, most-recent base in the low bits.
class Kmer {
 public:
  Kmer() = default;
  Kmer(std::uint64_t bits, std::uint32_t k) : bits_(bits), k_(k) {
    GNB_CHECK_MSG(valid_k(k), "k must be in [1,32], got " << k);
  }

  [[nodiscard]] std::uint64_t bits() const { return bits_; }
  [[nodiscard]] std::uint32_t k() const { return k_; }

  /// Shift in one base code (0-3) on the right, dropping the oldest.
  [[nodiscard]] Kmer rolled(std::uint8_t code) const {
    const std::uint64_t mask = k_ == 32 ? ~0ULL : ((1ULL << (2 * k_)) - 1);
    return Kmer(((bits_ << 2) | code) & mask, k_);
  }

  /// Reverse complement.
  [[nodiscard]] Kmer reverse_complement() const {
    std::uint64_t v = ~bits_;  // complement: code -> 3 - code == ~code (2-bit)
    // Reverse 2-bit groups.
    v = ((v & 0x3333333333333333ULL) << 2) | ((v >> 2) & 0x3333333333333333ULL);
    v = ((v & 0x0F0F0F0F0F0F0F0FULL) << 4) | ((v >> 4) & 0x0F0F0F0F0F0F0F0FULL);
    v = ((v & 0x00FF00FF00FF00FFULL) << 8) | ((v >> 8) & 0x00FF00FF00FF00FFULL);
    v = ((v & 0x0000FFFF0000FFFFULL) << 16) | ((v >> 16) & 0x0000FFFF0000FFFFULL);
    v = (v << 32) | (v >> 32);
    v >>= (64 - 2 * k_);
    return Kmer(v, k_);
  }

  /// Canonical form: min(fwd, rc). `was_reversed`, if non-null, receives
  /// whether the canonical form is the reverse complement.
  [[nodiscard]] Kmer canonical(bool* was_reversed = nullptr) const {
    const Kmer rc = reverse_complement();
    const bool rev = rc.bits_ < bits_;
    if (was_reversed != nullptr) *was_reversed = rev;
    return rev ? rc : *this;
  }

  [[nodiscard]] std::string to_string() const {
    std::string s(k_, '?');
    for (std::uint32_t i = 0; i < k_; ++i)
      s[k_ - 1 - i] = seq::dna_decode(static_cast<std::uint8_t>((bits_ >> (2 * i)) & 3));
    return s;
  }

  bool operator==(const Kmer& other) const = default;

 private:
  std::uint64_t bits_ = 0;
  std::uint32_t k_ = 0;
};

/// Strong 64-bit mix (finalizer of MurmurHash3) for k-mer hashing.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace gnb::kmer
