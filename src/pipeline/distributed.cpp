#include "pipeline/distributed.hpp"

#include <algorithm>
#include <span>

#include "kmer/counter.hpp"
#include "kmer/extract.hpp"
#include "util/wire.hpp"

namespace gnb::pipeline {

using kmer::AlignTask;
using kmer::Kmer;
using rt::Bytes;

std::vector<AlignTask> run_distributed(rt::Rank& rank, const seq::ReadStore& store,
                                       const PipelineConfig& config,
                                       const std::vector<seq::ReadId>& bounds) {
  kmer::check_k(config.k);
  const std::size_t p = rank.nranks();
  const std::span<const seq::Read> my_reads = std::span(store.reads()).subspan(
      bounds[rank.id()], bounds[rank.id() + 1] - bounds[rank.id()]);
  const auto shard_of = [p](const Kmer& km) {
    return static_cast<std::size_t>(kmer::mix64(km.bits()) % p);
  };

  // --- stage 2a: sharded k-mer counting (distributed histogram) ---
  // This rank's reads count into one sorted table. Each shard's slice of it
  // is still sorted, so every received run appends, and the shard merges
  // the runs linearly.
  std::vector<Bytes> count_msgs(p);
  {
    kmer::KmerCounter local;
    local.count_reads(my_reads, config.k);
    for (const auto& [km, count] : local.counts()) {
      Bytes& msg = count_msgs[shard_of(km)];
      wire::put<std::uint64_t>(msg, km.bits());
      wire::put<std::uint64_t>(msg, count);
    }
  }
  kmer::KmerCounter shard;
  for (const Bytes& msg : rank.alltoallv(std::move(count_msgs))) {
    kmer::KmerCounter run;
    std::size_t offset = 0;
    while (offset < msg.size()) {
      const auto bits = wire::get<std::uint64_t>(msg, offset);
      run.add(Kmer(bits, config.k), wire::get<std::uint64_t>(msg, offset));
    }
    shard.merge(run);
  }

  // --- stage 2b: filter to the reliable band (this shard's slice) ---
  kmer::KmerSet retained;
  for (const Kmer& km : shard.retained(config.lo, config.hi)) retained.insert(km);
  shard = kmer::KmerCounter{};

  // --- stage 2c: route sampled occurrences to shards ---
  kmer::PostingIndex index(retained, config.k, config.keep_frac);
  std::vector<Bytes> occ_msgs(p);
  for (const seq::Read& read : my_reads) {
    kmer::for_each_kmer(read, config.k, [&](const Kmer& km, const kmer::Occurrence& occ) {
      if (!index.sampled(km)) return;
      Bytes& msg = occ_msgs[shard_of(km)];
      wire::put<std::uint64_t>(msg, km.bits());
      wire::put<std::uint32_t>(msg, occ.read);
      wire::put<std::uint32_t>(msg, occ.pos);
      wire::put<std::uint8_t>(msg, occ.reversed ? 1 : 0);
    });
  }
  for (const Bytes& msg : rank.alltoallv(std::move(occ_msgs))) {
    std::size_t offset = 0;
    while (offset < msg.size()) {
      const Kmer km(wire::get<std::uint64_t>(msg, offset), config.k);
      kmer::Occurrence occ;
      occ.read = wire::get<std::uint32_t>(msg, offset);
      occ.pos = wire::get<std::uint32_t>(msg, offset);
      occ.reversed = wire::get<std::uint8_t>(msg, offset) != 0;
      index.add(km, occ);
    }
  }

  // --- stage 2d: join this shard's lists, dedupe by pair on a pair shard ---
  // Stage 1 already needs every read's length, so every rank has them.
  std::vector<std::size_t> lengths(store.size());
  for (const seq::Read& read : store.reads()) lengths[read.id] = read.length();
  std::vector<Bytes> pair_msgs(p);
  for (const AlignTask& task : kmer::generate_tasks(index, lengths))
    kmer::put_task(pair_msgs[kmer::mix64(kmer::pair_key(task.a, task.b)) % p], task);

  kmer::TaskTable pairs;
  for (const Bytes& msg : rank.alltoallv(std::move(pair_msgs))) {
    std::size_t offset = 0;
    while (offset < msg.size()) pairs.offer(kmer::get_task(msg, offset));
  }

  // --- stage 3: redistribute tasks, preserving the owner invariant ---
  // assign_tasks' greedy rule is one scan over every task with global
  // per-rank loads, so each pair shard sends its deduplicated tasks to
  // every rank, and every rank replays the scan over the whole (a, b)-sorted
  // set and keeps its own list: per-rank lists equal run_serial's at every
  // rank count. The replay costs every rank the deduplicated task set (the
  // smallest set of stage 2) and one sort.
  Bytes shard_tasks;
  for (const AlignTask& task : pairs.take_sorted()) kmer::put_task(shard_tasks, task);
  std::vector<AlignTask> all;
  for (const Bytes& msg : rank.alltoallv(std::vector<Bytes>(p, shard_tasks))) {
    std::size_t offset = 0;
    while (offset < msg.size()) all.push_back(kmer::get_task(msg, offset));
  }
  std::sort(all.begin(), all.end(), [](const AlignTask& x, const AlignTask& y) {
    return kmer::pair_key(x.a, x.b) < kmer::pair_key(y.a, y.b);
  });
  return std::move(assign_tasks(all, bounds)[rank.id()]);
}

}  // namespace gnb::pipeline
