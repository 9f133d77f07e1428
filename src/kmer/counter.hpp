#pragma once
// K-mer counting and the multiplicity histogram.
//
// DiBELLA computes a k-mer histogram between pipeline stages 1 and 2 and
// filters k-mers (seeds) on user criteria (paper §3). KmerCounter is the
// local building block; the distributed version in gnb::pipeline shards
// k-mers across ranks by hash and runs one KmerCounter per rank.
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
#include "util/histogram.hpp"

namespace gnb::kmer {

class KmerCounter {
 public:
  /// Add `count` to `km`'s multiplicity. Every k-mer of one counter has the
  /// same k. Appending in increasing bits order is O(1); anything else is a
  /// sorted insert.
  void add(const Kmer& km, std::uint64_t count = 1);

  /// Count every k-mer of every read.
  void count_reads(const std::vector<seq::Read>& reads, std::uint32_t k) {
    count_reads(std::span<const seq::Read>(reads), k);
  }
  void count_reads(std::span<const seq::Read> reads, std::uint32_t k);

  /// Add `other`'s multiplicities (a linear merge of the two tables).
  void merge(const KmerCounter& other);

  [[nodiscard]] std::uint64_t count(const Kmer& km) const;
  [[nodiscard]] std::size_t distinct() const { return bits_.size(); }
  [[nodiscard]] std::uint64_t total() const;

  /// Multiplicity spectrum: multiplicity -> number of distinct k-mers.
  [[nodiscard]] CountHistogram histogram() const;

  /// K-mers whose multiplicity lies in [lo, hi] inclusive, in bits order.
  [[nodiscard]] std::vector<Kmer> retained(std::uint64_t lo, std::uint64_t hi) const;

  /// (k-mer, multiplicity) entries in increasing bits order.
  [[nodiscard]] auto counts() const {
    const auto at = [this](std::size_t i) { return std::pair{Kmer(bits_[i], k_), counts_[i]}; };
    return std::views::iota(std::size_t{0}, bits_.size()) | std::views::transform(at);
  }

 private:
  void adopt_k(std::uint32_t k);
  /// Merge a sorted, distinct run of (bits, count) entries into the table.
  void merge_run(std::span<const std::uint64_t> bits, std::span<const std::uint64_t> counts);

  std::uint32_t k_ = 0;
  std::vector<std::uint64_t> bits_;    // distinct k-mer bits, increasing
  std::vector<std::uint64_t> counts_;  // multiplicity of bits_[i]
};

}  // namespace gnb::kmer
