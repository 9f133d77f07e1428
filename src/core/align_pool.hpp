#pragma once
// Intra-rank alignment worker pool.
//
// The paper overlaps communication with alignment compute inside each rank;
// the pool is that overlap: the rank thread resolves tasks to decoded code
// buffers (ReadCache handles) and submits them as ordered batches, then
// keeps running its exchange protocol while workers drain the alignment
// kernels. A worker claims a whole batch and hands it to its own
// align::BatchAligner backend — batches, not single tasks, are the unit of
// dispatch, so queue traffic is paid once per batch. Determinism is
// structural, not accidental: slots carry
// their task index, batches complete in FIFO submission order, the engine
// merges per-slot results in that order, and every backend returns
// bit-identical Alignments — so EngineResult is byte-identical at any
// thread count and any backend.
//
// The pool spawns workers only for threads > 1; the engines execute slots
// inline on the rank thread otherwise. While the tracer records, each worker
// binds its own track (pid = rank, tid = 1 + worker) and wraps every kernel
// call in a compute.batch span there, so worker kernel time is the rank's
// compute in the trace-derived breakdown.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "align/batch.hpp"
#include "align/result.hpp"
#include "align/xdrop.hpp"
#include "core/read_cache.hpp"
#include "kmer/candidates.hpp"
#include "proto/config.hpp"

namespace gnb::core {

/// One alignment task resolved to decoded, oriented code buffers. The
/// shared_ptr handles pin the codes independent of cache eviction and of
/// the (possibly temporary) remote Read they were decoded from.
struct AlignSlot {
  kmer::AlignTask task;        // read ids and seed
  /// Index into the rank's task list — or, for a recovery re-execution,
  /// into the manifest of rank `origin`.
  std::size_t task_index = 0;
  std::optional<std::uint32_t> origin;  // set only on recovery re-executions
  ReadCache::Codes a;                   // forward codes of the task's read A
  ReadCache::Codes b;                   // codes of read B, already seed-oriented
  align::Alignment alignment;           // worker (or inline) output
};

class AlignPool {
 public:
  /// An ordered group of slots submitted together. Slot results are read
  /// back only after the batch is popped complete.
  struct Batch {
    std::vector<AlignSlot> slots;
    /// First worker exception, rethrown by the engine at merge time.
    std::exception_ptr error;

   private:
    friend class AlignPool;
    bool done = true;  // submit() arms this; empty batches stay complete
  };

  /// `kind` must already be resolved (align::resolve_batch_aligner); each
  /// worker constructs its own backend instance from it. `rank` is the
  /// owning rank: the pid of the workers' trace tracks.
  AlignPool(std::uint32_t rank, std::size_t threads, align::XDropParams params,
            proto::BatchAlignerKind kind = proto::BatchAlignerKind::kScalar);
  ~AlignPool();
  AlignPool(const AlignPool&) = delete;
  AlignPool& operator=(const AlignPool&) = delete;

  [[nodiscard]] std::size_t threads() const { return threads_; }
  /// Whether workers exist (threads > 1); when false, submit() must not be
  /// called — the caller executes slots inline.
  [[nodiscard]] bool pooled() const { return threads_ > 1; }

  /// Enqueue a batch for the workers. Pooled mode only.
  void submit(std::unique_ptr<Batch> batch);
  /// Pop the oldest batch iff it has completed; nullptr otherwise.
  std::unique_ptr<Batch> try_pop();
  /// Block until the oldest batch completes; nullptr when none submitted.
  std::unique_ptr<Batch> wait_pop();
  /// Batches submitted but not yet popped.
  [[nodiscard]] std::size_t pending() const;

  /// Tasks executed by workers (pooled mode only).
  [[nodiscard]] std::uint64_t tasks_executed() const;
  /// Batches submitted to workers.
  [[nodiscard]] std::uint64_t batches_submitted() const;
  /// Kernel accounting summed across all workers' backends.
  [[nodiscard]] align::BatchStats kernel_stats() const;

 private:
  void worker_loop(std::size_t worker);

  const std::uint32_t rank_;
  const std::size_t threads_;
  const align::XDropParams params_;
  const proto::BatchAlignerKind kind_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: work available or stopping
  std::condition_variable done_cv_;  // wait_pop: front batch completed
  std::deque<std::unique_ptr<Batch>> queue_;  // submission order
  std::deque<Batch*> work_;                   // batches awaiting a worker
  bool stop_ = false;
  std::uint64_t tasks_executed_ = 0;
  std::uint64_t batches_submitted_ = 0;
  align::BatchStats kernel_stats_;

  std::vector<std::jthread> workers_;  // last member: joins before teardown
};

}  // namespace gnb::core
