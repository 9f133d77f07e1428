#pragma once
// 2-bit packed DNA sequence with out-of-band N positions.
//
// A read of L bases uses ceil(L/32) 64-bit words plus a (usually tiny)
// sorted vector of N positions. This keeps the working set small for the
// data-intensive exchange phases while still supporting the 5-letter
// alphabet. The words are canonical: an N packs as A and the bits past the
// last base are zero, so equal sequences have equal words, and the wire
// codec (seq/wire_codec) frames them without unpacking.

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "seq/alphabet.hpp"

namespace gnb::seq {

class Sequence {
 public:
  Sequence() = default;

  /// Parse from characters; throws gnb::Error on non-DNA characters.
  static Sequence from_string(std::string_view bases);

  /// Build from codes (each in 0..4).
  static Sequence from_codes(std::span<const std::uint8_t> codes);

  /// Build from `size` bases packed as words() packs them and their sorted,
  /// distinct N positions (each below `size`). The bits under each N and
  /// past the last base may hold anything; they are cleared.
  static Sequence from_words(std::size_t size, std::vector<std::uint64_t> words,
                             std::vector<std::uint32_t> n_positions);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Code (0-4) of the base at `pos`.
  [[nodiscard]] std::uint8_t code_at(std::size_t pos) const;

  /// Character at `pos`.
  [[nodiscard]] char at(std::size_t pos) const { return dna_decode(code_at(pos)); }

  /// Whether position `pos` is an 'N'.
  [[nodiscard]] bool is_n(std::size_t pos) const;

  /// Number of 'N' positions.
  [[nodiscard]] std::size_t n_count() const { return n_positions_.size(); }

  /// The bases packed two bits each, 32 to a word: base i sits at bits
  /// 2 (i mod 32) of word i / 32. An N and the bits past the last base
  /// read as zero (A).
  [[nodiscard]] std::span<const std::uint64_t> words() const { return words_; }

  /// The positions that are 'N', ascending.
  [[nodiscard]] std::span<const std::uint32_t> n_positions() const { return n_positions_; }

  [[nodiscard]] std::string to_string() const;

  /// Reverse complement as a new sequence.
  [[nodiscard]] Sequence reverse_complement() const;

  /// Subsequence [start, start+len).
  [[nodiscard]] Sequence subseq(std::size_t start, std::size_t len) const;

  /// Unpack all codes into a contiguous buffer (fast path for the aligner).
  [[nodiscard]] std::vector<std::uint8_t> unpack() const;

  /// Approximate heap footprint in bytes, used for memory accounting.
  [[nodiscard]] std::size_t footprint_bytes() const;

  // --- flat serialization (little-endian, self-delimiting) ---
  void serialize(std::vector<std::uint8_t>& out) const;
  /// Deserialize from `in` starting at `offset`; advances `offset`.
  static Sequence deserialize(std::span<const std::uint8_t> in, std::size_t& offset);

  bool operator==(const Sequence& other) const = default;

 private:
  /// Raw 2-bit code at pos, ignoring the N overlay.
  [[nodiscard]] std::uint8_t packed_code(std::size_t pos) const {
    return static_cast<std::uint8_t>((words_[pos >> 5] >> ((pos & 31) * 2)) & 3u);
  }
  void set_packed(std::size_t pos, std::uint8_t code) {
    words_[pos >> 5] |= static_cast<std::uint64_t>(code & 3u) << ((pos & 31) * 2);
  }
  /// Zero the bits under each N and past the last base.
  void clear_unused_bits();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;       // 2-bit codes, 32 bases per word
  std::vector<std::uint32_t> n_positions_; // sorted positions that are 'N'
};

/// Fraction of positions in `s` that are N.
double n_fraction(const Sequence& s);

/// Unpack `s` into contiguous codes, reverse-complemented when requested.
/// The single orientation path shared by the aligner's Sequence overload and
/// the engine-side read cache, so the two cannot drift.
std::vector<std::uint8_t> oriented_codes(const Sequence& s, bool reverse_complement);

}  // namespace gnb::seq
