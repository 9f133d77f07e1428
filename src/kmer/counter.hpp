#pragma once
// K-mer counting for the serial stage 2.
//
// DiBELLA counts k-mers between pipeline stages 1 and 2 and filters k-mers
// (seeds) on user criteria (paper §3). KmerCounter is the serial oracle's
// counter; the distributed stage 2/3 counts inside its record kernel
// (kmer/records.hpp) instead.
//
// The table is flat and sorted: distinct k-mer bits in increasing order
// beside their multiplicities. count_reads appends every canonical window
// to one word array, radix-sorts it on 2k bits and run-length encodes it in
// place, so counting peaks at two words per window (the array and its sort
// scratch) and the table then holds two words per distinct k-mer.

#include <cstdint>
#include <ranges>
#include <span>
#include <utility>
#include <vector>

#include "kmer/extract.hpp"
#include "kmer/kmer.hpp"

namespace gnb::kmer {

class KmerCounter {
 public:
  /// Count every k-mer of every read into this counter, which must be
  /// empty.
  void count_reads(const std::vector<seq::Read>& reads, std::uint32_t k) {
    count_reads(std::span<const seq::Read>(reads), k);
  }
  void count_reads(std::span<const seq::Read> reads, std::uint32_t k);

  [[nodiscard]] std::size_t distinct() const { return bits_.size(); }

  /// K-mers whose multiplicity lies in [lo, hi] inclusive, in bits order.
  [[nodiscard]] std::vector<Kmer> retained(std::uint64_t lo, std::uint64_t hi) const;

  /// (k-mer, multiplicity) entries in increasing bits order.
  [[nodiscard]] auto counts() const {
    const auto at = [this](std::size_t i) { return std::pair{Kmer(bits_[i], k_), counts_[i]}; };
    return std::views::iota(std::size_t{0}, bits_.size()) | std::views::transform(at);
  }

 private:
  std::uint32_t k_ = 0;
  std::vector<std::uint64_t> bits_;    // distinct k-mer bits, increasing
  std::vector<std::uint64_t> counts_;  // multiplicity of bits_[i]
};

}  // namespace gnb::kmer
