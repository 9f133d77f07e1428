#pragma once
// LSD radix sort on the low bits of an integer key: the sort behind the
// k-mer counter's run-length encoding and the stage-2/3 record kernel.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace gnb::kmer {

/// Stable LSD radix sort of `items[0, n)` on the low `key_bits` bits of
/// `key_of(item)` (its higher bits are zero), ping-ponging through
/// `scratch[0, n)`. Returns whichever of the two arrays holds the sorted
/// items; the other holds garbage. Digits are at most 12 bits wide, so a
/// pass's bucket heads (32 KiB) stay in L1 and k = 17 takes three passes. A
/// digit every item shares is skipped.
template <class T, class KeyOf>
T* radix_sort(T* items, T* scratch, std::size_t n, unsigned key_bits, KeyOf key_of) {
  if (n < 2 || key_bits == 0) return items;
  constexpr unsigned kMaxDigitBits = 12;
  const unsigned passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned digit_bits = (key_bits + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << digit_bits;
  const std::uint64_t digit_mask = buckets - 1;

  // Every pass's digit histogram, in one read of the items.
  std::vector<std::size_t> heads(passes * buckets, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = key_of(items[i]);
    for (unsigned p = 0; p < passes; ++p)
      ++heads[p * buckets + ((key >> (p * digit_bits)) & digit_mask)];
  }

  for (unsigned p = 0; p < passes; ++p) {
    std::size_t* head = heads.data() + p * buckets;
    const unsigned shift = p * digit_bits;
    if (head[(key_of(items[0]) >> shift) & digit_mask] == n) continue;
    std::size_t offset = 0;
    for (std::size_t b = 0; b < buckets; ++b) offset += std::exchange(head[b], offset);
    for (std::size_t i = 0; i < n; ++i)
      scratch[head[(key_of(items[i]) >> shift) & digit_mask]++] = items[i];
    std::swap(items, scratch);
  }
  return items;
}

}  // namespace gnb::kmer
