#pragma once
// The DiBELLA pre-alignment pipeline (paper §3):
//   stage 1: partition reads uniformly by size (data-independent);
//   stage 2: k-mer histogram + BELLA filtering; discover alignment tasks;
//   stage 3: redistribute tasks preserving the owner invariant — every task
//            is assigned to a rank that owns at least one of its two reads,
//            with task *counts* balanced across ranks (assign_tasks).
//
// This header is the serial (single-process) reference implementation; the
// distributed version over gnb::rt lives in distributed.hpp and must
// produce the same per-rank task lists.

#include <cstdint>
#include <vector>

#include "kmer/bella_filter.hpp"
#include "kmer/candidates.hpp"
#include "seq/read_store.hpp"

namespace gnb::pipeline {

struct PipelineConfig {
  std::uint32_t k = 17;
  /// Retained k-mer multiplicity band; fill from kmer::reliable_bounds.
  std::uint64_t lo = 2;
  std::uint64_t hi = 8;
  /// Fraction sketching rate for posting lists (1 = exhaustive).
  double keep_frac = 1.0;
  /// Threads per rank for run_distributed's k-mer kernels: the rank thread
  /// plus threads - 1 helpers. The task lists do not depend on it, and
  /// run_serial runs on the calling thread alone.
  std::size_t threads = 1;
};

struct TaskSet {
  /// Partition boundaries: rank r owns reads [bounds[r], bounds[r+1]).
  std::vector<seq::ReadId> bounds;
  /// Tasks assigned to each rank (owner invariant holds).
  std::vector<std::vector<kmer::AlignTask>> per_rank;

  [[nodiscard]] std::uint64_t total_tasks() const;
  /// All tasks, sorted by (a, b) — for comparing pipelines.
  [[nodiscard]] std::vector<kmer::AlignTask> sorted_union() const;
};

/// Reject a user-supplied rank count below 1 with a gnb::Error, before any
/// work.
void check_nranks(std::uint64_t nranks);

/// Stage 1: size-balanced partition of `store` over `nranks` (>= 1, else
/// gnb::Error).
std::vector<seq::ReadId> compute_bounds(const seq::ReadStore& store, std::size_t nranks);

/// Stages 2-3, serially: discover tasks and assign them to ranks with
/// assign_tasks.
TaskSet run_serial(const seq::ReadStore& store, const PipelineConfig& config,
                   std::size_t nranks);

/// Stage 3 in isolation: assign already-discovered tasks to ranks.
///
/// The rule is a greedy two-choice balance under the owner invariant: each
/// task goes to whichever of its two owners holds fewer tasks so far (ties
/// to the smaller rank id). Tasks are *visited* in the order of
/// kmer::mix64(kmer::pair_key(a, b)) — a pseudo-random order that every
/// rank count and every caller agrees on. Visiting in (a, b) order instead
/// would hand all of rank 0's cross tasks out first: the other ranks absorb
/// them while still empty, and the last rank's own tasks arrive when it has
/// no choice left, so loads grow monotonically with rank id. Each rank's
/// list keeps the input order — (a, b) order for every caller, since they
/// all pass kmer::generate_tasks' sorted output.
std::vector<std::vector<kmer::AlignTask>> assign_tasks(
    const std::vector<kmer::AlignTask>& tasks, const std::vector<seq::ReadId>& bounds);

/// Check the owner invariant: rank r's tasks each involve a read owned by
/// r. Aborts (GNB_CHECK) on violation; used by tests and debug paths.
void check_owner_invariant(const TaskSet& tasks);

}  // namespace gnb::pipeline
