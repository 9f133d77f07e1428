#pragma once
// Distributed DiBELLA stages 2-3 over the gnb::rt runtime, in three
// alltoallv rounds:
//   1. every k-mer window of a rank's reads travels once, as a 16-byte
//      record, to the shard owning its k-mer (kmer/records.hpp), which
//      counts, filters and joins its k-mers part by part;
//   2. candidate tasks are deduplicated on a second hash shard, by read pair;
//   3. every pair shard sends its deduplicated tasks to every rank, and
//      every rank replays stage 3's assignment (assign_tasks) over the
//      whole set and keeps the tasks assigned to it.
// Produces exactly pipeline::run_serial's per-rank task lists. The k-mer
// kernels of round 1 run on config.threads threads per rank.

#include <vector>

#include "pipeline/pipeline.hpp"
#include "rt/world.hpp"

namespace gnb::pipeline {

/// SPMD: call from every rank of a World. `store` is the full read set
/// (shared read-only, as partitioned input); `bounds` the stage-1
/// partition. Returns this rank's task list, sorted by (a, b) — equal to
/// run_serial(...).per_rank[rank.id()]. Throws gnb::Error, before any
/// collective, on an out-of-range k or a read too long for a k-mer record.
std::vector<kmer::AlignTask> run_distributed(rt::Rank& rank, const seq::ReadStore& store,
                                             const PipelineConfig& config,
                                             const std::vector<seq::ReadId>& bounds);

/// Stages 1-3 with stages 2-3 on a fault-free World of `nranks` ranks: the
/// distributed counterpart of run_serial, with the same result. Rejects a
/// bad k, rank count or read length with a gnb::Error before any rank
/// starts.
TaskSet run_distributed(const seq::ReadStore& store, const PipelineConfig& config,
                        std::size_t nranks);

}  // namespace gnb::pipeline
