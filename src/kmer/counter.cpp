#include "kmer/counter.hpp"

#include "kmer/radix_sort.hpp"

namespace gnb::kmer {

void KmerCounter::count_reads(std::span<const seq::Read> reads, std::uint32_t k) {
  GNB_CHECK_MSG(valid_k(k), "k out of range: " << k);
  GNB_CHECK_MSG(k_ == 0, "count_reads fills an empty KmerCounter");
  k_ = k;
  std::size_t windows = 0;
  for (const seq::Read& read : reads) windows += read.length() >= k ? read.length() - k + 1 : 0;
  std::vector<std::uint64_t> run;
  run.reserve(windows);
  for (const seq::Read& read : reads)
    for_each_kmer(read, k, [&run](const Kmer& km, const Occurrence&) {
      run.push_back(km.bits());
    });

  std::vector<std::uint64_t> scratch(run.size());
  if (radix_sort(run.data(), scratch.data(), run.size(), 2 * k,
                 [](std::uint64_t bits) { return bits; }) != run.data())
    run.swap(scratch);
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
  bits_ = std::move(run);
  counts_ = std::move(scratch);
}

std::vector<Kmer> KmerCounter::retained(std::uint64_t lo, std::uint64_t hi) const {
  std::vector<Kmer> keep;
  for (std::size_t i = 0; i < bits_.size(); ++i)
    if (counts_[i] >= lo && counts_[i] <= hi) keep.emplace_back(bits_[i], k_);
  return keep;
}

}  // namespace gnb::kmer
