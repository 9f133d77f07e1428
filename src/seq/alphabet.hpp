#pragma once
// The DNA alphabet for genomic sequences.
//
// Long-read data uses the 5-letter DNA alphabet {A,C,G,T} ∪ {N}: sequencers
// insert 'N' for low-confidence base calls (paper §2). Codes 0-3 are the
// 2-bit encodings used by k-mer packing; code 4 (N) is tracked out-of-band.

#include <array>
#include <cstdint>

namespace gnb::seq {

inline constexpr std::uint8_t kA = 0;
inline constexpr std::uint8_t kC = 1;
inline constexpr std::uint8_t kG = 2;
inline constexpr std::uint8_t kT = 3;
inline constexpr std::uint8_t kN = 4;
inline constexpr std::uint8_t kInvalidCode = 0xFF;

namespace detail {
constexpr std::array<std::uint8_t, 256> make_dna_encode_table() {
  std::array<std::uint8_t, 256> table{};
  for (auto& entry : table) entry = kInvalidCode;
  table['A'] = table['a'] = kA;
  table['C'] = table['c'] = kC;
  table['G'] = table['g'] = kG;
  table['T'] = table['t'] = kT;
  table['U'] = table['u'] = kT;  // RNA input tolerated
  table['N'] = table['n'] = kN;
  return table;
}
inline constexpr auto kDnaEncode = make_dna_encode_table();
inline constexpr std::array<char, 5> kDnaDecode = {'A', 'C', 'G', 'T', 'N'};
}  // namespace detail

/// Character -> code (0-4) or kInvalidCode.
constexpr std::uint8_t dna_encode(char base) {
  return detail::kDnaEncode[static_cast<unsigned char>(base)];
}

/// Code (0-4) -> character.
constexpr char dna_decode(std::uint8_t code) { return detail::kDnaDecode[code]; }

/// Watson–Crick complement of a code; N maps to N.
constexpr std::uint8_t dna_complement(std::uint8_t code) {
  return code == kN ? kN : static_cast<std::uint8_t>(3 - code);
}

constexpr bool is_dna_char(char base) { return dna_encode(base) != kInvalidCode; }

}  // namespace gnb::seq
