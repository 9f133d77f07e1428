#include "pipeline/distributed.hpp"

#include <algorithm>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "kmer/counter.hpp"
#include "kmer/extract.hpp"
#include "util/wire.hpp"

namespace gnb::pipeline {

namespace {

using kmer::AlignTask;
using kmer::Kmer;
using rt::Bytes;

std::uint64_t pair_key(seq::ReadId a, seq::ReadId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

std::vector<AlignTask> run_distributed(rt::Rank& rank, const seq::ReadStore& store,
                                       const PipelineConfig& config,
                                       const std::vector<seq::ReadId>& bounds) {
  const std::size_t p = rank.nranks();
  const seq::ReadId my_begin = bounds[rank.id()];
  const seq::ReadId my_end = bounds[rank.id() + 1];
  const auto shard_of = [p](const Kmer& km) {
    return static_cast<std::size_t>(kmer::mix64(km.bits()) % p);
  };
  const std::uint64_t keep_threshold =
      config.keep_frac >= 1.0
          ? ~std::uint64_t{0}
          : static_cast<std::uint64_t>(config.keep_frac * 18446744073709551615.0);

  // --- stage 2a: sharded k-mer counting (distributed histogram) ---
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> local_counts(p);
  for (seq::ReadId id = my_begin; id < my_end; ++id) {
    kmer::for_each_kmer(store.get(id), config.k,
                        [&](const Kmer& km, const kmer::Occurrence&) {
                          ++local_counts[shard_of(km)][km.bits()];
                        });
  }
  std::vector<Bytes> count_msgs(p);
  for (std::size_t dst = 0; dst < p; ++dst) {
    for (const auto& [bits, count] : local_counts[dst]) {
      wire::put<std::uint64_t>(count_msgs[dst], bits);
      wire::put<std::uint64_t>(count_msgs[dst], count);
    }
    local_counts[dst].clear();
  }
  std::unordered_map<std::uint64_t, std::uint64_t> shard_counts;
  for (const Bytes& msg : rank.alltoallv(std::move(count_msgs))) {
    std::size_t offset = 0;
    while (offset < msg.size()) {
      const auto bits = wire::get<std::uint64_t>(msg, offset);
      shard_counts[bits] += wire::get<std::uint64_t>(msg, offset);
    }
  }

  // --- stage 2b: filter to the reliable band (this shard's slice) ---
  std::unordered_set<std::uint64_t> retained;
  retained.reserve(shard_counts.size());
  for (const auto& [bits, count] : shard_counts)
    if (count >= config.lo && count <= config.hi) retained.insert(bits);
  shard_counts.clear();

  // --- stage 2c: route sampled occurrences to shards ---
  std::vector<Bytes> occ_msgs(p);
  for (seq::ReadId id = my_begin; id < my_end; ++id) {
    const auto read_len = static_cast<std::uint32_t>(store.get(id).length());
    kmer::for_each_kmer(store.get(id), config.k,
                        [&](const Kmer& km, const kmer::Occurrence& occ) {
                          if (kmer::mix64(km.bits()) > keep_threshold) return;
                          Bytes& msg = occ_msgs[shard_of(km)];
                          wire::put<std::uint64_t>(msg, km.bits());
                          wire::put<std::uint32_t>(msg, occ.read);
                          wire::put<std::uint32_t>(msg, occ.pos);
                          wire::put<std::uint32_t>(msg, read_len);
                          wire::put<std::uint8_t>(msg, occ.reversed ? 1 : 0);
                        });
  }
  struct ShardOcc {
    seq::ReadId read;
    std::uint32_t pos;
    std::uint32_t len;
    bool reversed;
  };
  std::unordered_map<std::uint64_t, std::vector<ShardOcc>> postings;
  for (const Bytes& msg : rank.alltoallv(std::move(occ_msgs))) {
    std::size_t offset = 0;
    while (offset < msg.size()) {
      const auto bits = wire::get<std::uint64_t>(msg, offset);
      ShardOcc occ{};
      occ.read = wire::get<std::uint32_t>(msg, offset);
      occ.pos = wire::get<std::uint32_t>(msg, offset);
      occ.len = wire::get<std::uint32_t>(msg, offset);
      occ.reversed = wire::get<std::uint8_t>(msg, offset) != 0;
      if (retained.contains(bits)) postings[bits].push_back(occ);
    }
  }
  retained.clear();

  // --- stage 2d: enumerate candidate pairs, locally dedupe, shard by pair ---
  std::unordered_map<std::uint64_t, AlignTask> local_best;
  for (const auto& [bits, occs] : postings) {
    for (std::size_t i = 0; i < occs.size(); ++i) {
      for (std::size_t j = i + 1; j < occs.size(); ++j) {
        if (occs[i].read == occs[j].read) continue;
        const ShardOcc& oa = occs[i].read < occs[j].read ? occs[i] : occs[j];
        const ShardOcc& ob = occs[i].read < occs[j].read ? occs[j] : occs[i];
        AlignTask task;
        task.a = oa.read;
        task.b = ob.read;
        task.seed.length = static_cast<std::uint16_t>(config.k);
        task.seed.a_pos = oa.pos;
        if (oa.reversed == ob.reversed) {
          task.seed.b_pos = ob.pos;
          task.seed.b_reversed = false;
        } else {
          task.seed.b_pos = ob.len - config.k - ob.pos;
          task.seed.b_reversed = true;
        }
        const auto [it, inserted] = local_best.emplace(pair_key(task.a, task.b), task);
        if (!inserted && kmer::seed_less(task.seed, it->second.seed)) it->second = task;
      }
    }
  }
  postings.clear();

  std::vector<Bytes> pair_msgs(p);
  for (const auto& [key, task] : local_best)
    kmer::put_task(pair_msgs[kmer::mix64(key) % p], task);
  local_best.clear();

  std::unordered_map<std::uint64_t, AlignTask> global_best;
  for (const Bytes& msg : rank.alltoallv(std::move(pair_msgs))) {
    std::size_t offset = 0;
    while (offset < msg.size()) {
      const AlignTask task = kmer::get_task(msg, offset);
      const auto [it, inserted] = global_best.emplace(pair_key(task.a, task.b), task);
      if (!inserted && kmer::seed_less(task.seed, it->second.seed)) it->second = task;
    }
  }

  // --- stage 3: redistribute tasks, preserving the owner invariant ---
  // Deterministic iteration for reproducibility of the greedy balance.
  std::vector<AlignTask> deduped;
  deduped.reserve(global_best.size());
  for (const auto& [key, task] : global_best) deduped.push_back(task);
  global_best.clear();
  std::sort(deduped.begin(), deduped.end(), [](const AlignTask& x, const AlignTask& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });

  std::vector<std::uint64_t> load_estimate(p, 0);
  std::vector<Bytes> task_msgs(p);
  for (const AlignTask& task : deduped) {
    const std::size_t owner_a = seq::partition_owner(bounds, task.a);
    const std::size_t owner_b = seq::partition_owner(bounds, task.b);
    std::size_t dst = owner_a;
    if (owner_b != owner_a &&
        (load_estimate[owner_b] < load_estimate[owner_a] ||
         (load_estimate[owner_b] == load_estimate[owner_a] && owner_b < owner_a))) {
      dst = owner_b;
    }
    ++load_estimate[dst];
    kmer::put_task(task_msgs[dst], task);
  }

  std::vector<AlignTask> mine;
  for (const Bytes& msg : rank.alltoallv(std::move(task_msgs))) {
    std::size_t offset = 0;
    while (offset < msg.size()) mine.push_back(kmer::get_task(msg, offset));
  }
  std::sort(mine.begin(), mine.end(), [](const AlignTask& x, const AlignTask& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  return mine;
}

}  // namespace gnb::pipeline
