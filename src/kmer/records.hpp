#pragma once
// The distributed stage-2/3 record kernel: every k-mer window of a read
// becomes one 16-byte record, routed once to the shard that owns its
// k-mer, where the k-mer is counted, filtered and joined in one pass.
//
// A shard owns the k-mers whose hash falls in its slots, and each shard's
// records are split by the same hash into parts sized to stay in cache.
// Every sender writes its records into exactly-sized per-shard buffers,
// part by part; the shard gathers one part at a time from every source,
// radix-sorts it on the k-mer, and walks the runs of equal k-mers: a run's
// length is the k-mer's multiplicity, so the band test needs no separate
// count table, and a run inside the band is that k-mer's posting list for
// TaskTable::join. Because the sketch rule is a function of the k-mer, the
// windows it drops are never sent.
//
// Both kernels split their work over the threads a Fanout lends them. The
// packer gives each thread a contiguous chunk of the reads and
// prefix-sums the chunks' per-slot counts into write cursors, so its
// buffers are byte-identical at every thread count. The joiner hands
// parts out one at a time; each thread joins into its own TaskTable, and
// the tables merge under the min-seed rule, which makes the result
// independent of which thread joined which part.

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "kmer/candidates.hpp"
#include "seq/read_store.hpp"

namespace gnb::kmer {

/// One k-mer window: its canonical k-mer, its read, and its window start
/// and strand packed as start << 1 | reversed.
struct WindowRecord {
  std::uint64_t bits;
  std::uint32_t read;
  std::uint32_t pos_strand;
};
static_assert(sizeof(WindowRecord) == 16);

/// Calls body(t) once for every t in [0, threads) at the same time, body(0)
/// on the calling thread, and returns once every call has returned.
using Fanout =
    std::function<void(std::size_t threads, const std::function<void(std::size_t)>& body)>;

/// The Fanout on plain threads, started for the call. A helper's exception
/// is rethrown on the calling thread.
void fan_out(std::size_t threads, const std::function<void(std::size_t)>& body);

/// Where a k-mer's records go: `shards` shards of `parts()` parts each,
/// chosen from the low 32 bits of mix64(bits). (The sketch rule keeps the
/// hashes below a threshold, which biases the high bits, not the low ones.)
class RecordRouting {
 public:
  /// Records per part the part count aims at. A part and its sort scratch
  /// take 256 KiB, inside one core's L2. Larger parts sort no faster and
  /// raise peak memory: every shard holds one part and its scratch beside
  /// all the records it received.
  static constexpr std::uint64_t kPartRecords = std::uint64_t{1} << 13;

  /// Route `records` records, summed over all senders, to `shards` shards.
  /// Every sender and every shard must agree on both numbers.
  RecordRouting(std::size_t shards, std::uint64_t records);

  [[nodiscard]] std::size_t shards() const { return shards_; }
  [[nodiscard]] std::size_t parts() const { return parts_; }
  /// The slot shard * parts() + part of the k-mer whose mix64 is `hash`.
  [[nodiscard]] std::size_t slot(std::uint64_t hash) const {
    return static_cast<std::size_t>(((hash & 0xFFFFFFFFULL) * slots_) >> 32);
  }

 private:
  std::size_t shards_;
  std::size_t parts_ = 1;
  std::uint64_t slots_ = 1;
};

/// The records of the windows of `reads` that `sketch` keeps, one buffer per
/// shard: parts() u64 record counts, then the records, part by part and in
/// read order within a part, both in host byte order (the buffers never
/// leave the process). Reads must pass check_record_length. Runs on
/// `threads` threads of `fanout`; the buffers do not depend on how many.
std::vector<std::vector<std::uint8_t>> pack_records(std::span<const seq::Read> reads,
                                                    std::uint32_t k, const Sketch& sketch,
                                                    const RecordRouting& routing,
                                                    std::size_t threads = 1,
                                                    const Fanout& fanout = fan_out);

/// One shard's count, filter and join over the buffers every sender packed
/// for it: part by part, gather, sort by k-mer, and join every run whose
/// length lies in [lo, hi] into `table`. `read_lengths[id]` is every read's
/// length, as TaskTable::join takes it. Runs on `threads` threads of
/// `fanout`; the tasks do not depend on how many.
void join_records(std::span<const std::vector<std::uint8_t>> buffers,
                  const RecordRouting& routing, std::uint32_t k, std::uint64_t lo,
                  std::uint64_t hi, const std::vector<std::size_t>& read_lengths,
                  TaskTable& table, std::size_t threads = 1, const Fanout& fanout = fan_out);

}  // namespace gnb::kmer
