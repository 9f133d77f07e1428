#pragma once
// Shared configuration and result types for the two many-to-many alignment
// engines (bulk-synchronous and asynchronous).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "align/batch.hpp"
#include "align/result.hpp"
#include "align/xdrop.hpp"
#include "core/align_pool.hpp"
#include "core/read_cache.hpp"
#include "kmer/candidates.hpp"
#include "proto/config.hpp"
#include "rt/phase.hpp"
#include "seq/read_store.hpp"
#include "stat/breakdown.hpp"

namespace gnb::rt {
class Rank;
}

namespace gnb::core {

class RecoveryContext;

struct EngineConfig {
  align::XDropParams xdrop;
  align::AlignmentFilter filter{/*min_score=*/50, /*min_overlap=*/100};

  /// §4.3 communication-benchmarking mode: "executes everything except the
  /// pairwise alignment computation".
  bool skip_compute = false;

  /// Coordination-protocol knobs (round budget, RPC window, pull batching)
  /// — the *same* structure, defaults and arithmetic the simulator uses
  /// (src/proto), so the executed protocol cannot drift from the costed one.
  proto::ProtoConfig proto;
};

/// Per-rank outcome of an engine run. Phase timings and peak memory live
/// in the rank's instrumentation (rt::PhaseTimers / MemoryMeter).
struct EngineResult {
  std::vector<align::AlignmentRecord> accepted;
  std::uint64_t tasks_done = 0;
  std::uint64_t cells = 0;  // DP cells evaluated
  /// On-the-wire read-payload bytes received: the framed codec bytes of
  /// every read this rank pulled, excluding checksum and RPC-logical
  /// headers. Both engines count the same quantity (it used to mean Fig-6
  /// load bytes in BSP but reply bytes in async), so fig9 and the CI perf
  /// gate compare like with like, and proto::ExchangePlan.exchange_bytes
  /// plans it.
  std::uint64_t exchange_bytes_received = 0;
  /// On-the-wire read-payload bytes this rank sent (same framing rules).
  /// Fault-free, sums of sent and received agree across the world — the
  /// byte-conservation invariant tests/test_wire asserts.
  std::uint64_t exchange_bytes_sent = 0;
  /// Off-codec-equivalent bytes of the payloads received: what the same
  /// reads would have cost uncompressed. Invariant across compression
  /// modes; wire_raw_bytes / exchange_bytes_received is the compression
  /// ratio.
  std::uint64_t wire_raw_bytes = 0;
  std::uint64_t rounds = 0;                // BSP supersteps executed
  std::uint64_t messages = 0;              // RPCs or exchange buffers sent
  std::vector<std::uint64_t> round_bytes;  // BSP: payload sent per superstep
  stat::ComputeCounters compute;           // cache/pool accounting (TaskRunner::flush)
};

/// Fetch a read this rank owns; aborts if `id` is not in the rank's
/// partition — the distributed-memory discipline both engines must obey
/// even though the threaded runtime shares one address space.
const seq::Read& local_read(const seq::ReadStore& store,
                            const std::vector<seq::ReadId>& bounds, std::uint32_t rank_id,
                            seq::ReadId id);

/// Phase-boundary metrics snapshot: both engines call this once before
/// returning, so `gnbody --metrics` reports the same counter names
/// (obs/spans.hpp) regardless of backend.
void flush_engine_metrics(rt::Rank& rank, const EngineResult& result);

/// The intra-rank compute layer both engines and crash recovery share — the
/// one path every alignment task executes through: resolves alignment
/// tasks to decoded code buffers through a per-rank ReadCache (each read
/// unpacked at most once per orientation per phase) and hands *batches* of
/// tasks to an align::BatchAligner backend — either inline
/// (compute_threads <= 1: same serial timer attribution as before) or on an
/// AlignPool whose batches complete while the engine keeps exchanging. The
/// backend (scalar / SIMD row kernel) comes from config.proto.batch_aligner,
/// resolved once at construction.
///
/// Batches are filled across calls: run_local_tasks, run_tasks and
/// reexecute append slots to one pending batch, which goes to the kernel
/// when it holds kSlotsPerBatch slots, on submit_pending() (BSP calls it at
/// the end of every round) and in drain(). A pulled read's few tasks
/// therefore share a pool dispatch with the next reads' tasks instead of
/// paying for one of their own.
///
/// Determinism contract: tasks are submitted in the engine's serial
/// execution order, batch results are merged in that same FIFO order, and
/// every backend returns bit-identical Alignments — so result.accepted /
/// cells / tasks_done are byte-identical at any thread count and backend.
/// Under recovery (`recovery != nullptr`) every run_* call submits its
/// pending batch and drains it synchronously before returning, so
/// completion-log order and crash-point placement match the serial engine
/// exactly; each merge logs its task's completion (or re-execution) entry.
class TaskRunner {
 public:
  /// Slots per kernel batch: large enough to amortize queue traffic, small
  /// enough that merges (and under recovery, completion logs) interleave.
  /// Inline and pooled modes cut identical batch boundaries, so kernel
  /// accounting is comparable across thread counts.
  static constexpr std::size_t kSlotsPerBatch = 32;

  TaskRunner(rt::Rank& rank, const seq::ReadStore& store,
             const std::vector<seq::ReadId>& bounds,
             const std::vector<kmer::AlignTask>& my_tasks, const EngineConfig& config,
             EngineResult& result, RecoveryContext* recovery);

  /// Queue tasks whose both reads are rank-local, in `tasks` order.
  void run_local_tasks(const std::vector<std::size_t>& tasks);

  /// Queue every listed task pairing the arriving (possibly remote,
  /// temporary) read with one of ours, in `tasks` order. The read's codes
  /// are pinned by the cache, so queued slots outlive `remote`.
  void run_tasks(const seq::Read& remote, std::span<const std::size_t> tasks);

  /// Queue a recovery re-execution of task `index` of rank `origin`'s
  /// manifest. The reads were resolved under the agreed owner map, so they
  /// may be adopted or fetched rather than rank-local. Its merge logs the
  /// re-execution entry; the caller drains before flushing the log.
  void reexecute(const kmer::AlignTask& task, std::uint32_t origin, std::size_t index,
                 const seq::Read& read_a, const seq::Read& read_b);

  /// Hand the pending batch, if any, to the kernel: run it inline, or
  /// submit it to the pool.
  void submit_pending();

  /// Merge every already-completed batch (non-blocking).
  void poll();
  /// Submit the pending batch, then block until every batch is merged.
  /// Engines that must stay RPC-serviceable call submit_pending() and
  /// interleave progress() with poll()/drained() instead.
  void drain();
  /// Nothing is pending and every submitted batch is merged.
  [[nodiscard]] bool drained() const;

  /// Whether worker threads are active (compute_threads > 1 and the kernel
  /// is actually run) — the gate for the compute.pool span, mirrored by the
  /// simulator.
  [[nodiscard]] bool pooled() const { return pool_.pooled(); }

  /// Phase-boundary flush (call once, after the exit agreement loop, so a
  /// late recovery's re-executions are counted): charge the workers'
  /// aggregate kernel seconds to timers.compute and fold cache and pool
  /// accounting into result.compute.
  void flush();

  [[nodiscard]] const ReadCache& cache() const { return cache_; }

 private:
  void add_slots(std::span<const std::size_t> tasks, const seq::Read& remote, bool have_remote);
  /// Append a slot to the pending batch (overhead stopwatch running);
  /// submits the batch once it is full.
  void push_slot(const kmer::AlignTask& task, std::size_t index,
                 std::optional<std::uint32_t> origin, const seq::Read& read_a,
                 const seq::Read& read_b);
  void run_inline(std::vector<AlignSlot>& slots);
  void merge_slot(const AlignSlot& slot);
  void merge_batch(std::unique_ptr<AlignPool::Batch> batch);
  void submit(std::unique_ptr<AlignPool::Batch> batch);

  rt::Rank& rank_;
  const seq::ReadStore& store_;
  const std::vector<seq::ReadId>& bounds_;
  const std::vector<kmer::AlignTask>& my_tasks_;
  const EngineConfig& config_;
  EngineResult& result_;
  RecoveryContext* recovery_;
  const proto::BatchAlignerKind kind_;  // resolved backend (never kAuto)
  ReadCache cache_;
  AlignPool pool_;
  std::unique_ptr<align::BatchAligner> aligner_;  // inline (non-pooled) backend
  std::vector<align::AlignTask> task_buf_;        // inline batch staging
  std::vector<AlignSlot> pending_;                // the batch being filled
};

}  // namespace gnb::core
