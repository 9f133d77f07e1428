#pragma once
// Distributed DiBELLA stages 2-3 over the gnb::rt runtime.
//
// K-mers are sharded across ranks by hash (the distributed histogram),
// retained k-mers stay on their shard, occurrences are routed to shards,
// candidate pairs are deduplicated on a second hash shard (by read pair),
// and finally every rank replays stage 3's assignment (assign_tasks) over
// the gathered deduplicated tasks and keeps the tasks assigned to it.
// Produces exactly pipeline::run_serial's per-rank task lists.

#include <vector>

#include "pipeline/pipeline.hpp"
#include "rt/world.hpp"

namespace gnb::pipeline {

/// SPMD: call from every rank of a World. `store` is the full read set
/// (shared read-only, as partitioned input); `bounds` the stage-1
/// partition. Returns this rank's task list, sorted by (a, b) — equal to
/// run_serial(...).per_rank[rank.id()].
std::vector<kmer::AlignTask> run_distributed(rt::Rank& rank, const seq::ReadStore& store,
                                             const PipelineConfig& config,
                                             const std::vector<seq::ReadId>& bounds);

}  // namespace gnb::pipeline
