#pragma once
// Candidate-overlap generation: pairs of reads sharing a retained k-mer.
//
// "Only pairs of reads with matching (filtered) k-mers are considered
// overlap candidates. Filtered k-mers can then be used to seed the
// seed-and-extend pairwise alignments." (paper §2). Following the paper's
// experimental setup, exactly one seed is kept per candidate pair.

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "align/result.hpp"
#include "kmer/extract.hpp"
#include "kmer/kmer.hpp"
#include "seq/read_store.hpp"
#include "util/error.hpp"
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
/// exchange and recovery manifests (19 bytes, little-endian): a, b,
/// seed.a_pos, seed.b_pos as u32, seed.length as u16, seed.b_reversed as
/// u8. Pinned by a golden-bytes test.
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

/// Longest read every window start of which fits the 31-bit position
/// field of a k-mer record and of a TaskTable seed.
inline constexpr std::uint64_t kMaxRecordReadLength = std::uint64_t{1} << 31;

/// Reject a read longer than kMaxRecordReadLength with a gnb::Error.
void check_record_length(std::uint64_t length, std::string_view read_name);

/// The 64-bit key of the undirected read pair {a, b}, a < b.
inline std::uint64_t pair_key(seq::ReadId a, seq::ReadId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// A set of k-mers of one k, open-addressed (linear probing on mix64) over
/// dense member slots: the i-th distinct k-mer inserted owns slot i, so
/// per-k-mer data (PostingIndex's lists) lives in flat arrays by slot.
class KmerSet {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Insert `km`; false if it was already a member.
  bool insert(const Kmer& km);
  /// The member's slot in [0, size()), or kNoSlot.
  [[nodiscard]] std::uint32_t slot(const Kmer& km) const;
  /// The member owning `slot`.
  [[nodiscard]] Kmer member(std::uint32_t slot) const { return Kmer(members_[slot], k_); }
  [[nodiscard]] std::size_t size() const { return members_.size(); }

 private:
  /// The bucket holding `bits`, or the empty bucket ending its probe run.
  [[nodiscard]] std::size_t probe(std::uint64_t bits) const;

  std::uint32_t k_ = 0;
  std::vector<std::uint64_t> members_;  // k-mer bits by slot
  std::vector<std::uint32_t> buckets_;  // slot + 1 (0 = empty); power-of-two size, load <= 1/2
};

/// Deterministic total order on seeds, used to pick "the" seed for a pair
/// when multiple shared k-mers produce candidates: by a_pos, then b_pos,
/// then forward before reversed.
bool seed_less(const align::Seed& x, const align::Seed& y);

/// Posting lists grouped by KmerSet slot: slot s owns occurrences
/// [offsets[s], offsets[s + 1]) of one flat array. Iterates as
/// (k-mer, occurrences) pairs in slot order; a list may be empty.
class PostingLists {
 public:
  class Iterator {
   public:
    using value_type = std::pair<Kmer, std::span<const Occurrence>>;

    Iterator(const PostingLists* lists, std::size_t slot) : lists_(lists), slot_(slot) {}

    value_type operator*() const { return lists_->at(slot_); }
    Iterator& operator++() {
      ++slot_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return slot_ == other.slot_; }

   private:
    const PostingLists* lists_;
    std::size_t slot_;
  };

  [[nodiscard]] Iterator begin() const { return {this, 0}; }
  [[nodiscard]] Iterator end() const { return {this, offsets_.size() - 1}; }

 private:
  friend class PostingIndex;
  [[nodiscard]] Iterator::value_type at(std::size_t slot) const {
    const Occurrence* first = occurrences_.data() + offsets_[slot];
    const Occurrence* last = occurrences_.data() + offsets_[slot + 1];
    return {retained_->member(static_cast<std::uint32_t>(slot)), {first, last}};
  }

  const KmerSet* retained_ = nullptr;
  std::vector<std::size_t> offsets_{0};  // one per slot, plus the end
  std::vector<Occurrence> occurrences_;
};

/// Fraction sketching: a k-mer is kept iff mix64(bits) <= keep_frac * 2^64.
/// Because the decision is a global function of the k-mer, matching stays
/// symmetric across reads — a true overlap (sharing many k-mers) is still
/// found with high probability while posting-list work drops by
/// ~1/keep_frac. This is a performance knob for the scaled-down real
/// datasets (high-coverage pairs share hundreds of k-mers); keep_frac = 1
/// keeps every k-mer, reproducing exhaustive BELLA-style indexing. The one
/// sketch rule of both pipelines.
class Sketch {
 public:
  explicit Sketch(double keep_frac) : threshold_(threshold_for(keep_frac)) {}

  /// Whether the k-mer with these bits is kept.
  [[nodiscard]] bool keeps(std::uint64_t bits) const {
    return threshold_ == ~std::uint64_t{0} || mix64(bits) <= threshold_;
  }

 private:
  static std::uint64_t threshold_for(double keep_frac) {
    if (keep_frac >= 1.0) return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(keep_frac * 18446744073709551615.0);
  }

  std::uint64_t threshold_;
};

/// Posting lists: retained canonical k-mer -> its occurrences across reads,
/// for the k-mers the sketch keeps. Occurrences are appended flat, tagged
/// with their k-mer's KmerSet slot, and grouped by slot when the lists are
/// read.
class PostingIndex {
 public:
  PostingIndex(const KmerSet& retained, std::uint32_t k, double keep_frac = 1.0)
      : retained_(retained), k_(k), sketch_(keep_frac) {}

  /// Index every retained, sketched k-mer occurrence of `read`.
  void add_read(const seq::Read& read) {
    for_each_kmer(read, k_, [this](const Kmer& km, const Occurrence& occ) {
      if (!sketch_.keeps(km.bits())) return;
      const std::uint32_t slot = retained_.slot(km);
      if (slot != KmerSet::kNoSlot) postings_.push_back({slot, occ});
    });
  }

  /// The occurrences grouped into one list per retained k-mer, each in
  /// indexing order: a counting sort by slot on every call.
  [[nodiscard]] PostingLists lists() const;
  [[nodiscard]] std::uint32_t k() const { return k_; }

 private:
  struct Posting {
    std::uint32_t slot = 0;
    Occurrence occ;
  };

  const KmerSet& retained_;
  std::uint32_t k_;
  Sketch sketch_;
  std::vector<Posting> postings_;  // in indexing order
};

/// Candidate tasks deduplicated by read pair: one open-addressed array of
/// 16-byte buckets {pair_key, seed}, linear probing from a multiplicative
/// hash of pair_key, at most three quarters full (a shard's table holds
/// every pair it saw, so a sparser one would raise stage 2's memory peak).
/// A seed packs as
/// a_pos << 32 | b_pos << 1 | b_reversed, which orders seeds as seed_less
/// does, so keeping the per-pair minimum is one u64 min: the result depends
/// neither on the order tasks are offered in nor on the order tables are
/// merged in. Every seed of a table has the same length, the k its tasks
/// were joined at. Seed positions must fit 31 bits: reads are at most
/// kMaxRecordReadLength bases long. The one dedup of both pipelines.
class TaskTable {
 public:
  /// Keep `task` unless its pair already holds a smaller seed.
  void offer(const AlignTask& task);

  /// The candidate join of one posting list: offer every pair of its
  /// occurrences from different reads, seeded at the shared k-mer.
  /// `read_lengths[id]` translates b's coordinate when the two occurrences
  /// disagree on strand.
  void join(std::span<const Occurrence> occs, std::uint32_t k,
            const std::vector<std::size_t>& read_lengths) {
    join(occs.size(), k, read_lengths, [occs](std::size_t i) { return occs[i]; });
  }

  /// join() over `n` occurrences, the i-th of which is `occurrence(i)`: the
  /// record kernel joins its sorted records in place this way.
  template <class OccurrenceAt>
  void join(std::size_t n, std::uint32_t k, const std::vector<std::size_t>& read_lengths,
            OccurrenceAt occurrence) {
    set_length(k);
    sides_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const Occurrence occ = occurrence(i);
      GNB_CHECK(occ.read < read_lengths.size());
      const std::size_t length = read_lengths[occ.read];
      GNB_CHECK(length <= kMaxRecordReadLength && std::size_t{occ.pos} + k <= length);
      sides_.push_back({occ.read, occ.pos, static_cast<std::uint32_t>(length - k - occ.pos),
                        occ.reversed});
    }
    join_sides();
  }

  /// Offer every task `other` holds.
  void merge(const TaskTable& other);

  /// The tasks sorted by (a, b); leaves the table empty.
  [[nodiscard]] std::vector<AlignTask> take_sorted();

 private:
  static constexpr std::size_t kMinBuckets = 16;

  struct Bucket {
    std::uint64_t pair = 0;  // pair_key; 0 = empty (a < b, so no pair's key is 0)
    std::uint64_t seed = 0;
  };
  /// One occurrence of a join: b_pos as the forward side and as the
  /// reverse-complemented side of a pair.
  struct Side {
    std::uint32_t read;
    std::uint32_t pos;
    std::uint32_t flipped;  // length - k - pos
    bool reversed;
  };

  void set_length(std::uint32_t length);
  void join_sides();
  void insert(std::uint64_t pair, std::uint64_t seed);
  void grow();

  std::vector<Bucket> buckets_ = std::vector<Bucket>(kMinBuckets);
  std::size_t size_ = 0;
  std::uint32_t length_ = 0;  // every seed's length; 0 while the table is empty
  std::vector<Side> sides_;   // join scratch
};

/// Generate deduplicated alignment tasks (one seed per pair, smallest seed
/// wins) from posting lists, sorted by (a, b).
std::vector<AlignTask> generate_tasks(const PostingIndex& index,
                                      const std::vector<std::size_t>& read_lengths);

/// Convenience: full local pipeline — count, filter to [lo, hi], index,
/// generate. Used by tests, examples and the single-process path. Rejects
/// a bad k or a read longer than kMaxRecordReadLength with a gnb::Error.
std::vector<AlignTask> discover_tasks(const seq::ReadStore& reads, std::uint32_t k,
                                      std::uint64_t lo, std::uint64_t hi,
                                      double keep_frac = 1.0);

}  // namespace gnb::kmer
