#include "kmer/extract.hpp"

namespace gnb::kmer {

std::vector<Kmer> extract_kmers(const seq::Read& read, std::uint32_t k) {
  std::vector<Kmer> out;
  for_each_kmer(read, k, [&](const Kmer& km, const Occurrence&) { out.push_back(km); });
  return out;
}

}  // namespace gnb::kmer
