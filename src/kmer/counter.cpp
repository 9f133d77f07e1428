#include "kmer/counter.hpp"

#include <algorithm>

namespace gnb::kmer {

namespace {

/// LSD radix sort of `keys` on their low `key_bits` bits (higher bits are
/// zero), ping-ponging through `scratch` (same size). On return `keys` is
/// sorted and `scratch` holds garbage. Digits are at most 12 bits wide, so
/// a pass's bucket heads (32 KiB) stay in L1 and k = 17 takes three passes.
void radix_sort(std::vector<std::uint64_t>& keys, std::vector<std::uint64_t>& scratch,
                unsigned key_bits) {
  if (keys.size() < 2) return;
  constexpr unsigned kMaxDigitBits = 12;
  const unsigned passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned digit_bits = (key_bits + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << digit_bits;
  const std::uint64_t digit_mask = buckets - 1;

  // Every pass's digit histogram, in one read of the keys.
  std::vector<std::size_t> heads(passes * buckets, 0);
  for (const std::uint64_t key : keys)
    for (unsigned p = 0; p < passes; ++p)
      ++heads[p * buckets + ((key >> (p * digit_bits)) & digit_mask)];

  for (unsigned p = 0; p < passes; ++p) {
    std::size_t* head = heads.data() + p * buckets;
    const unsigned shift = p * digit_bits;
    // A digit all keys share orders nothing.
    if (head[(keys.front() >> shift) & digit_mask] == keys.size()) continue;
    std::size_t offset = 0;
    for (std::size_t b = 0; b < buckets; ++b) offset += std::exchange(head[b], offset);
    for (const std::uint64_t key : keys) scratch[head[(key >> shift) & digit_mask]++] = key;
    keys.swap(scratch);
  }
}

}  // namespace

void KmerCounter::adopt_k(std::uint32_t k) {
  GNB_CHECK_MSG(valid_k(k), "k out of range: " << k);
  if (k_ == 0) k_ = k;
  GNB_CHECK_MSG(k == k_, "one KmerCounter counts one k: " << k_ << ", got " << k);
}

void KmerCounter::add(const Kmer& km, std::uint64_t count) {
  adopt_k(km.k());
  if (bits_.empty() || km.bits() > bits_.back()) {
    bits_.push_back(km.bits());
    counts_.push_back(count);
    return;
  }
  const auto it = std::lower_bound(bits_.begin(), bits_.end(), km.bits());
  const auto slot = it - bits_.begin();
  if (*it == km.bits()) {
    counts_[slot] += count;
  } else {
    bits_.insert(it, km.bits());
    counts_.insert(counts_.begin() + slot, count);
  }
}

void KmerCounter::count_reads(std::span<const seq::Read> reads, std::uint32_t k) {
  adopt_k(k);
  std::size_t windows = 0;
  for (const seq::Read& read : reads) windows += read.length() >= k ? read.length() - k + 1 : 0;
  std::vector<std::uint64_t> run;
  run.reserve(windows);
  for (const seq::Read& read : reads)
    for_each_kmer(read, k, [&run](const Kmer& km, const Occurrence&) {
      run.push_back(km.bits());
    });

  std::vector<std::uint64_t> scratch(run.size());
  radix_sort(run, scratch, 2 * k);
  // Run-length encode in place: distinct bits compact to the front of
  // `run`, their multiplicities to the front of the now-free scratch.
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < run.size();) {
    std::size_t end = i + 1;
    while (end < run.size() && run[end] == run[i]) ++end;
    run[distinct] = run[i];
    scratch[distinct] = end - i;
    ++distinct;
    i = end;
  }
  run.resize(distinct);
  scratch.resize(distinct);

  if (bits_.empty()) {
    bits_ = std::move(run);
    counts_ = std::move(scratch);
  } else {
    merge_run(run, scratch);
  }
}

void KmerCounter::merge(const KmerCounter& other) {
  if (other.k_ == 0) return;
  adopt_k(other.k_);
  merge_run(other.bits_, other.counts_);
}

void KmerCounter::merge_run(std::span<const std::uint64_t> bits,
                            std::span<const std::uint64_t> counts) {
  std::vector<std::uint64_t> merged_bits, merged_counts;
  merged_bits.reserve(bits_.size() + bits.size());
  merged_counts.reserve(bits_.size() + bits.size());
  std::size_t i = 0, j = 0;
  while (i < bits_.size() || j < bits.size()) {
    if (j == bits.size() || (i < bits_.size() && bits_[i] < bits[j])) {
      merged_bits.push_back(bits_[i]);
      merged_counts.push_back(counts_[i++]);
    } else if (i == bits_.size() || bits[j] < bits_[i]) {
      merged_bits.push_back(bits[j]);
      merged_counts.push_back(counts[j++]);
    } else {
      merged_bits.push_back(bits_[i]);
      merged_counts.push_back(counts_[i++] + counts[j++]);
    }
  }
  bits_.swap(merged_bits);
  counts_.swap(merged_counts);
}

std::uint64_t KmerCounter::count(const Kmer& km) const {
  if (km.k() != k_) return 0;
  const auto it = std::lower_bound(bits_.begin(), bits_.end(), km.bits());
  return it == bits_.end() || *it != km.bits() ? 0 : counts_[it - bits_.begin()];
}

std::uint64_t KmerCounter::total() const {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : counts_) sum += n;
  return sum;
}

CountHistogram KmerCounter::histogram() const {
  CountHistogram hist;
  for (const std::uint64_t n : counts_) hist.add(n);
  return hist;
}

std::vector<Kmer> KmerCounter::retained(std::uint64_t lo, std::uint64_t hi) const {
  std::vector<Kmer> keep;
  for (std::size_t i = 0; i < bits_.size(); ++i)
    if (counts_[i] >= lo && counts_[i] <= hi) keep.emplace_back(bits_[i], k_);
  return keep;
}

}  // namespace gnb::kmer
