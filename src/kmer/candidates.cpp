#include "kmer/candidates.hpp"

#include <algorithm>
#include <tuple>

#include "kmer/counter.hpp"
#include "util/error.hpp"

namespace gnb::kmer {

namespace {

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

void TaskTable::offer(const AlignTask& task) {
  if (2 * (tasks_.size() + 1) > buckets_.size())
    rehash(buckets_, tasks_.size(),
           [this](std::size_t i) { return pair_key(tasks_[i].a, tasks_[i].b); });
  const std::size_t mask = buckets_.size() - 1;
  for (std::size_t b = mix64(pair_key(task.a, task.b)) & mask;; b = (b + 1) & mask) {
    if (buckets_[b] == 0) {
      tasks_.push_back(task);
      buckets_[b] = static_cast<std::uint32_t>(tasks_.size());
      return;
    }
    AlignTask& held = tasks_[buckets_[b] - 1];
    if (held.a == task.a && held.b == task.b) {
      if (seed_less(task.seed, held.seed)) held = task;
      return;
    }
  }
}

void TaskTable::join(std::span<const Occurrence> occs, std::uint32_t k,
                     const std::vector<std::size_t>& read_lengths) {
  for (std::size_t i = 0; i < occs.size(); ++i) {
    for (std::size_t j = i + 1; j < occs.size(); ++j) {
      if (occs[i].read == occs[j].read) continue;  // self-pairs are not overlaps
      const Occurrence& oa = occs[i].read < occs[j].read ? occs[i] : occs[j];
      const Occurrence& ob = occs[i].read < occs[j].read ? occs[j] : occs[i];

      AlignTask task;
      task.a = oa.read;
      task.b = ob.read;
      task.seed.length = static_cast<std::uint16_t>(k);
      task.seed.a_pos = oa.pos;
      if (oa.reversed == ob.reversed) {
        // Same strand relative to the canonical form: forward match.
        task.seed.b_pos = ob.pos;
        task.seed.b_reversed = false;
      } else {
        // Opposite strands: the seed matches a's forward sequence against
        // the reverse complement of b; translate b's coordinate.
        GNB_CHECK(ob.read < read_lengths.size());
        const auto blen = static_cast<std::uint32_t>(read_lengths[ob.read]);
        GNB_CHECK(ob.pos + k <= blen);
        task.seed.b_pos = blen - k - ob.pos;
        task.seed.b_reversed = true;
      }
      // One seed per candidate overlap; pick deterministically (smallest
      // seed coordinates win) so serial and distributed pipelines agree.
      offer(task);
    }
  }
}

std::vector<AlignTask> TaskTable::take_sorted() {
  std::vector<AlignTask> tasks = std::move(tasks_);
  tasks_.clear();
  buckets_.clear();
  std::sort(tasks.begin(), tasks.end(), [](const AlignTask& x, const AlignTask& y) {
    return pair_key(x.a, x.b) < pair_key(y.a, y.b);
  });
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
