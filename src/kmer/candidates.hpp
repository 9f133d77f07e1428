#pragma once
// Candidate-overlap generation: pairs of reads sharing a retained k-mer.
//
// "Only pairs of reads with matching (filtered) k-mers are considered
// overlap candidates. Filtered k-mers can then be used to seed the
// seed-and-extend pairwise alignments." (paper §2). Following the paper's
// experimental setup, exactly one seed is kept per candidate pair.

#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "align/result.hpp"
#include "kmer/extract.hpp"
#include "kmer/kmer.hpp"
#include "seq/read_store.hpp"
#include "util/wire.hpp"

namespace gnb::kmer {

/// One pairwise-alignment task: align reads `a` and `b` from the given
/// seed. Invariant: a < b (pairs are undirected; the smaller id is "a").
struct AlignTask {
  seq::ReadId a = seq::kInvalidRead;
  seq::ReadId b = seq::kInvalidRead;
  align::Seed seed;
};

/// The one wire encoding of a task, shared by the distributed stage-2/3
/// exchange, recovery manifests and pipeline checkpoints (19 bytes,
/// little-endian): a, b, seed.a_pos, seed.b_pos as u32, seed.length as u16,
/// seed.b_reversed as u8. Pinned by a golden-bytes test.
inline void put_task(std::vector<std::uint8_t>& out, const AlignTask& task) {
  wire::put<std::uint32_t>(out, task.a);
  wire::put<std::uint32_t>(out, task.b);
  wire::put<std::uint32_t>(out, task.seed.a_pos);
  wire::put<std::uint32_t>(out, task.seed.b_pos);
  wire::put<std::uint16_t>(out, task.seed.length);
  wire::put<std::uint8_t>(out, task.seed.b_reversed ? 1 : 0);
}

inline AlignTask get_task(std::span<const std::uint8_t> in, std::size_t& offset) {
  AlignTask task;
  task.a = wire::get<std::uint32_t>(in, offset);
  task.b = wire::get<std::uint32_t>(in, offset);
  task.seed.a_pos = wire::get<std::uint32_t>(in, offset);
  task.seed.b_pos = wire::get<std::uint32_t>(in, offset);
  task.seed.length = wire::get<std::uint16_t>(in, offset);
  task.seed.b_reversed = wire::get<std::uint8_t>(in, offset) != 0;
  return task;
}

using KmerSet = std::unordered_set<Kmer, KmerHash>;

/// Deterministic total order on seeds, used to pick "the" seed for a pair
/// when multiple shared k-mers produce candidates.
bool seed_less(const align::Seed& x, const align::Seed& y);

/// Posting lists: retained canonical k-mer -> its occurrences across reads.
///
/// `keep_frac` < 1 enables fraction sketching: only k-mers whose hash falls
/// below keep_frac * 2^64 are indexed. Because the decision is a global
/// function of the k-mer, matching stays symmetric across reads — a true
/// overlap (sharing many k-mers) is still found with high probability while
/// posting-list work drops by ~1/keep_frac. This is a performance knob for
/// the scaled-down real datasets (high-coverage pairs share hundreds of
/// k-mers); keep_frac = 1 reproduces exhaustive BELLA-style indexing.
class PostingIndex {
 public:
  PostingIndex(const KmerSet& retained, std::uint32_t k, double keep_frac = 1.0)
      : retained_(retained), k_(k),
        keep_threshold_(keep_frac >= 1.0
                            ? ~std::uint64_t{0}
                            : static_cast<std::uint64_t>(
                                  keep_frac * 18446744073709551615.0)) {}

  /// Index every retained k-mer occurrence of `read`.
  void add_read(const seq::Read& read);

  [[nodiscard]] const std::unordered_map<Kmer, std::vector<Occurrence>, KmerHash>& lists() const {
    return lists_;
  }
  [[nodiscard]] std::uint32_t k() const { return k_; }

 private:
  const KmerSet& retained_;
  std::uint32_t k_;
  std::uint64_t keep_threshold_;
  std::unordered_map<Kmer, std::vector<Occurrence>, KmerHash> lists_;
};

/// Generate deduplicated alignment tasks (one seed per pair, first k-mer
/// hit wins) from posting lists. `read_lengths[id]` is needed to transform
/// seed coordinates when the two occurrences disagree on strand.
std::vector<AlignTask> generate_tasks(const PostingIndex& index,
                                      const std::vector<std::size_t>& read_lengths);

/// Convenience: full local pipeline — count, filter to [lo, hi], index,
/// generate. Used by tests, examples and the single-process path.
std::vector<AlignTask> discover_tasks(const seq::ReadStore& reads, std::uint32_t k,
                                      std::uint64_t lo, std::uint64_t hi,
                                      double keep_frac = 1.0);

}  // namespace gnb::kmer
