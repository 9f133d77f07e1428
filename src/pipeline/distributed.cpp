#include "pipeline/distributed.hpp"

#include <algorithm>
#include <latch>
#include <span>
#include <string>

#include "kmer/records.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"

namespace gnb::pipeline {

using kmer::AlignTask;
using rt::Bytes;

namespace {

/// Reject what the stage-2/3 kernel cannot represent, on every caller's
/// thread before any collective.
void check_inputs(const seq::ReadStore& store, const PipelineConfig& config) {
  kmer::check_k(config.k);
  for (const seq::Read& read : store.reads())
    kmer::check_record_length(read.length(), read.name);
}

/// The k-mer kernels' fanout on one rank: helper t (t >= 1) runs on the
/// trace track an alignment worker would, (rank, t), inside a `span` span,
/// and the rank thread waits for its helpers inside compute.pool. So the
/// rank's attributed compute is the work its threads did, not the wait.
kmer::Fanout stage_fanout(std::uint32_t rank, const char* span) {
  return [rank, span](std::size_t threads, const std::function<void(std::size_t)>& body) {
    std::latch helpers_done(static_cast<std::ptrdiff_t>(threads - 1));
    kmer::fan_out(threads, [&](std::size_t t) {
      if (t == 0) {
        body(0);
        if (threads > 1) {
          GNB_SPAN(obs::span::kComputePool);
          helpers_done.wait();
        }
        return;
      }
      struct CountDown {
        std::latch& latch;
        ~CountDown() { latch.count_down(); }
      } count_down{helpers_done};
      obs::Tracer& tracer = obs::Tracer::instance();
      if (tracer.enabled()) {
        obs::Tracer::bind(tracer.buffer(rank, static_cast<std::uint32_t>(t),
                                        "rank " + std::to_string(rank),
                                        "worker " + std::to_string(t - 1)));
      }
      {
        GNB_SPAN(span);
        body(t);
      }
      obs::Tracer::bind(nullptr);
    });
  };
}

}  // namespace

std::vector<AlignTask> run_distributed(rt::Rank& rank, const seq::ReadStore& store,
                                       const PipelineConfig& config,
                                       const std::vector<seq::ReadId>& bounds) {
  check_inputs(store, config);
  const std::size_t p = rank.nranks();
  const std::span<const seq::Read> my_reads = std::span(store.reads()).subspan(
      bounds[rank.id()], bounds[rank.id() + 1] - bounds[rank.id()]);

  // Stage 1 already needs every read's length, so every rank has them; the
  // record routing is sized from the windows of the whole store, which every
  // rank therefore agrees on without a collective.
  std::vector<std::size_t> lengths(store.size());
  std::uint64_t windows = 0;
  for (const seq::Read& read : store.reads()) {
    lengths[read.id] = read.length();
    if (read.length() >= config.k) windows += read.length() - config.k + 1;
  }
  const kmer::Sketch sketch(config.keep_frac);
  const kmer::RecordRouting routing(
      p, static_cast<std::uint64_t>(static_cast<double>(windows) *
                                    std::min(config.keep_frac, 1.0)));

  // --- stage 2a: one record per sketched window, to its k-mer's shard ---
  const auto id = static_cast<std::uint32_t>(rank.id());
  const std::size_t threads = std::max<std::size_t>(config.threads, 1);
  std::vector<Bytes> records;
  {
    GNB_SPAN(obs::span::kStageKmerRecords, "reads", my_reads.size());
    records = rank.alltoallv(kmer::pack_records(my_reads, config.k, sketch, routing, threads,
                                                stage_fanout(id, obs::span::kStageKmerRecords)));
  }

  // --- stage 2b: count, filter and join this shard's k-mers ---
  kmer::TaskTable candidates;
  {
    GNB_SPAN(obs::span::kStageKmerJoin, "parts", routing.parts());
    kmer::join_records(records, routing, config.k, config.lo, config.hi, lengths, candidates,
                       threads, stage_fanout(id, obs::span::kStageKmerJoin));
    std::vector<Bytes>().swap(records);
  }

  // --- stage 2c: dedupe candidates by pair on a pair shard ---
  kmer::TaskTable pairs;
  {
    GNB_SPAN(obs::span::kStagePairDedup);
    std::vector<Bytes> pair_msgs(p);
    for (const AlignTask& task : candidates.take_sorted())
      kmer::put_task(pair_msgs[kmer::mix64(kmer::pair_key(task.a, task.b)) % p], task);
    for (const Bytes& msg : rank.alltoallv(std::move(pair_msgs))) {
      std::size_t offset = 0;
      while (offset < msg.size()) pairs.offer(kmer::get_task(msg, offset));
    }
  }

  // --- stage 3: redistribute tasks, preserving the owner invariant ---
  // assign_tasks' greedy rule is one scan over every task with global
  // per-rank loads, so each pair shard sends its deduplicated tasks to
  // every rank, and every rank replays the scan over the whole (a, b)-sorted
  // set and keeps its own list: per-rank lists equal run_serial's at every
  // rank count. The replay costs every rank the deduplicated task set (the
  // smallest set of stage 2) and one sort.
  GNB_SPAN(obs::span::kStageTaskAssign);
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

TaskSet run_distributed(const seq::ReadStore& store, const PipelineConfig& config,
                        std::size_t nranks) {
  check_inputs(store, config);
  TaskSet result;
  {
    GNB_SPAN(obs::span::kStagePartition, "reads", store.size());
    result.bounds = compute_bounds(store, nranks);
  }
  result.per_rank.resize(nranks);
  rt::World world(nranks);
  world.run([&](rt::Rank& rank) {
    result.per_rank[rank.id()] = run_distributed(rank, store, config, result.bounds);
  });
  return result;
}

}  // namespace gnb::pipeline
