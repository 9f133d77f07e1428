#include "kmer/candidates.hpp"

#include <algorithm>
#include <bit>
#include <tuple>

#include "kmer/counter.hpp"

namespace gnb::kmer {

namespace {

/// The home bucket of a pair key in a table of `buckets` (a power of two,
/// at least 16): the top bits of a Fibonacci product, one multiply where
/// mix64 takes two. The join probes once per candidate pair.
std::size_t home_bucket(std::uint64_t pair, std::size_t buckets) {
  return static_cast<std::size_t>((pair * 0x9E3779B97F4A7C15ULL) >>
                                  (64 - std::countr_zero(buckets)));
}

/// Double `buckets` (at least 16) and re-place every entry, where
/// `key_of(i)` is the key of entry i (stored as i + 1).
template <class KeyOf>
void rehash(std::vector<std::uint32_t>& buckets, std::size_t entries, KeyOf key_of) {
  buckets.assign(std::max<std::size_t>(16, 2 * buckets.size()), 0);
  const std::size_t mask = buckets.size() - 1;
  for (std::size_t i = 0; i < entries; ++i) {
    std::size_t b = mix64(key_of(i)) & mask;
    while (buckets[b] != 0) b = (b + 1) & mask;
    buckets[b] = static_cast<std::uint32_t>(i + 1);
  }
}

}  // namespace

void check_record_length(std::uint64_t length, std::string_view read_name) {
  GNB_THROW_IF(length > kMaxRecordReadLength,
               "read '" << read_name << "' has " << length
                        << " bases; k-mer records hold window starts of reads up to "
                        << kMaxRecordReadLength << " bases");
}

bool seed_less(const align::Seed& x, const align::Seed& y) {
  return std::tie(x.a_pos, x.b_pos, x.b_reversed) < std::tie(y.a_pos, y.b_pos, y.b_reversed);
}

std::size_t KmerSet::probe(std::uint64_t bits) const {
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t b = mix64(bits) & mask;; b = (b + 1) & mask)
    if (buckets_[b] == 0 || members_[buckets_[b] - 1] == bits) return b;
}

std::uint32_t KmerSet::slot(const Kmer& km) const {
  if (members_.empty() || km.k() != k_) return kNoSlot;
  const std::uint32_t entry = buckets_[probe(km.bits())];
  return entry == 0 ? kNoSlot : entry - 1;
}

bool KmerSet::insert(const Kmer& km) {
  if (k_ == 0) k_ = km.k();
  GNB_CHECK_MSG(km.k() == k_, "one KmerSet holds one k: " << k_ << ", got " << km.k());
  if (2 * (members_.size() + 1) > buckets_.size())
    rehash(buckets_, members_.size(), [this](std::size_t i) { return members_[i]; });
  const std::size_t b = probe(km.bits());
  if (buckets_[b] != 0) return false;
  members_.push_back(km.bits());
  buckets_[b] = static_cast<std::uint32_t>(members_.size());
  return true;
}

PostingLists PostingIndex::lists() const {
  PostingLists lists;
  lists.retained_ = &retained_;
  lists.offsets_.assign(retained_.size() + 1, 0);
  for (const Posting& posting : postings_) ++lists.offsets_[posting.slot + 1];
  for (std::size_t slot = 0; slot < retained_.size(); ++slot)
    lists.offsets_[slot + 1] += lists.offsets_[slot];
  lists.occurrences_.resize(postings_.size());
  std::vector<std::size_t> next(lists.offsets_.begin(), lists.offsets_.end() - 1);
  for (const Posting& posting : postings_)
    lists.occurrences_[next[posting.slot]++] = posting.occ;
  return lists;
}

void TaskTable::set_length(std::uint32_t length) {
  if (length_ == 0) length_ = length;
  GNB_CHECK_MSG(length == length_, "one TaskTable holds seeds of one length: " << length_
                                                                            << ", got " << length);
}

void TaskTable::grow() {
  std::vector<Bucket> old(2 * buckets_.size());
  old.swap(buckets_);
  const std::size_t mask = buckets_.size() - 1;
  for (const Bucket& bucket : old) {
    if (bucket.pair == 0) continue;
    std::size_t b = home_bucket(bucket.pair, buckets_.size());
    while (buckets_[b].pair != 0) b = (b + 1) & mask;
    buckets_[b] = bucket;
  }
}

inline void TaskTable::insert(std::uint64_t pair, std::uint64_t seed) {
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t b = home_bucket(pair, buckets_.size());; b = (b + 1) & mask) {
    Bucket& bucket = buckets_[b];
    if (bucket.pair == pair) {
      bucket.seed = std::min(bucket.seed, seed);
      return;
    }
    if (bucket.pair == 0) {
      bucket = {pair, seed};
      if (4 * ++size_ > 3 * buckets_.size()) grow();
      return;
    }
  }
}

void TaskTable::offer(const AlignTask& task) {
  GNB_CHECK(task.a < task.b && task.seed.b_pos < kMaxRecordReadLength);
  set_length(task.seed.length);
  insert(pair_key(task.a, task.b), std::uint64_t{task.seed.a_pos} << 32 |
                                       std::uint64_t{task.seed.b_pos} << 1 |
                                       (task.seed.b_reversed ? 1 : 0));
}

void TaskTable::join_sides() {
  for (std::size_t i = 0; i < sides_.size(); ++i) {
    for (std::size_t j = i + 1; j < sides_.size(); ++j) {
      if (sides_[i].read == sides_[j].read) continue;  // self-pairs are not overlaps
      const bool i_first = sides_[i].read < sides_[j].read;
      const Side& a = i_first ? sides_[i] : sides_[j];
      const Side& b = i_first ? sides_[j] : sides_[i];
      // Same strand relative to the canonical form: a forward match.
      // Opposite strands: the seed matches a's forward sequence against
      // the reverse complement of b, at b's translated coordinate.
      const bool reversed = a.reversed != b.reversed;
      const std::uint32_t b_pos = reversed ? b.flipped : b.pos;
      insert(pair_key(a.read, b.read),
             std::uint64_t{a.pos} << 32 | std::uint64_t{b_pos} << 1 | (reversed ? 1 : 0));
    }
  }
}

void TaskTable::merge(const TaskTable& other) {
  if (other.size_ == 0) return;
  set_length(other.length_);
  for (const Bucket& bucket : other.buckets_)
    if (bucket.pair != 0) insert(bucket.pair, bucket.seed);
}

std::vector<AlignTask> TaskTable::take_sorted() {
  std::vector<Bucket> held;
  held.reserve(size_);
  for (const Bucket& bucket : buckets_)
    if (bucket.pair != 0) held.push_back(bucket);
  std::sort(held.begin(), held.end(),
            [](const Bucket& x, const Bucket& y) { return x.pair < y.pair; });
  std::vector<AlignTask> tasks(held.size());
  for (std::size_t i = 0; i < held.size(); ++i) {
    AlignTask& task = tasks[i];
    task.a = static_cast<seq::ReadId>(held[i].pair >> 32);
    task.b = static_cast<seq::ReadId>(held[i].pair);
    task.seed.a_pos = static_cast<std::uint32_t>(held[i].seed >> 32);
    task.seed.b_pos = static_cast<std::uint32_t>(held[i].seed) >> 1;
    task.seed.length = static_cast<std::uint16_t>(length_);
    task.seed.b_reversed = (held[i].seed & 1) != 0;
  }
  buckets_.assign(kMinBuckets, Bucket{});
  size_ = 0;
  length_ = 0;
  return tasks;
}

std::vector<AlignTask> generate_tasks(const PostingIndex& index,
                                      const std::vector<std::size_t>& read_lengths) {
  TaskTable table;
  for (const auto& [km, occs] : index.lists()) table.join(occs, index.k(), read_lengths);
  return table.take_sorted();
}

std::vector<AlignTask> discover_tasks(const seq::ReadStore& reads, std::uint32_t k,
                                      std::uint64_t lo, std::uint64_t hi, double keep_frac) {
  check_k(k);
  for (const seq::Read& read : reads.reads()) check_record_length(read.length(), read.name);
  KmerSet retained;
  {
    KmerCounter counter;
    counter.count_reads(reads.reads(), k);
    for (const Kmer& km : counter.retained(lo, hi)) retained.insert(km);
  }

  PostingIndex index(retained, k, keep_frac);
  for (const auto& read : reads.reads()) index.add_read(read);

  std::vector<std::size_t> lengths(reads.size());
  for (const auto& read : reads.reads()) lengths[read.id] = read.length();
  return generate_tasks(index, lengths);
}

}  // namespace gnb::kmer
