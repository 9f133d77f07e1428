#include "core/engine.hpp"

#include <algorithm>

#include "core/recovery.hpp"
#include "obs/spans.hpp"
#include "rt/phase.hpp"
#include "rt/world.hpp"
#include "util/error.hpp"

namespace gnb::core {

const seq::Read& local_read(const seq::ReadStore& store, const std::vector<seq::ReadId>& bounds,
                            std::uint32_t rank_id, seq::ReadId id) {
  GNB_CHECK_MSG(seq::partition_owner(bounds, id) == rank_id,
                "rank " << rank_id << " accessed remote read " << id
                        << " without communication");
  return store.get(id);
}

void flush_engine_metrics(rt::Rank& rank, const EngineResult& result) {
  obs::MetricsRegistry& registry = rank.metrics();
  registry.add(obs::metric::kAlignTasks, result.tasks_done);
  registry.add(obs::metric::kAlignCells, result.cells);
  registry.add(obs::metric::kAlignAccepted, result.accepted.size());
  registry.add(obs::metric::kExchangeBytes, result.exchange_bytes_received);
  registry.add(obs::metric::kExchangeMessages, result.messages);
  registry.add(obs::metric::kWireRawBytes, result.wire_raw_bytes);
  registry.add(obs::metric::kWireSentBytes, result.exchange_bytes_sent);
  registry.gauge_max(obs::metric::kExchangeRounds, result.rounds);
  // Process-wide DP scratch watermark: every rank reports the same value,
  // gauge_max keeps the merge well-defined.
  registry.gauge_max(obs::metric::kAlignScratchBytes, align::scratch_peak_bytes());
  // Cache/pool counters flow through the rank like the fault counters:
  // World::run copies them into the breakdown and exports the metrics.
  rank.compute_counters() = result.compute;
}

TaskRunner::TaskRunner(rt::Rank& rank, const seq::ReadStore& store,
                       const std::vector<seq::ReadId>& bounds,
                       const std::vector<kmer::AlignTask>& my_tasks,
                       const EngineConfig& config, EngineResult& result,
                       RecoveryContext* recovery)
    : rank_(rank),
      store_(store),
      bounds_(bounds),
      my_tasks_(my_tasks),
      config_(config),
      result_(result),
      recovery_(recovery),
      kind_(align::resolve_batch_aligner(config.proto.batch_aligner)),
      cache_(config.proto.read_cache_bytes),
      // skip_compute has no kernels to offload: stay inline so §4.3 runs
      // keep their exact serial shape (and spawn no idle workers).
      pool_(config.skip_compute ? 1 : std::max<std::size_t>(1, config.proto.compute_threads),
            config.xdrop, kind_),
      aligner_(align::make_batch_aligner(kind_, config.xdrop)) {}

void TaskRunner::merge_slot(const AlignSlot& slot) {
  ++result_.tasks_done;
  const std::size_t before = result_.accepted.size();
  if (!config_.skip_compute) {
    result_.cells += slot.alignment.cells;
    if (config_.filter.accepts(slot.alignment))
      result_.accepted.push_back(
          align::AlignmentRecord{slot.task.a, slot.task.b, slot.alignment});
  }
  if (recovery_ != nullptr) recovery_->log_completion(slot, result_, before);
}

void TaskRunner::run_inline(std::vector<AlignSlot>& slots) {
  // Inline path: the caller's overhead stopwatch is running; the kernel
  // batch is charged to compute while overhead is paused ("Computation
  // (Alignment)" vs "Computation (Overhead)").
  if (!config_.skip_compute) {
    task_buf_.clear();
    task_buf_.reserve(slots.size());
    for (const AlignSlot& slot : slots)
      task_buf_.push_back(align::AlignTask{*slot.a, *slot.b, slot.task.seed});
    ScopedPause hold(rank_.timers().overhead);
    ScopedCharge charge(rank_.timers().compute);
    const std::vector<align::Alignment> results = aligner_->align(task_buf_);
    for (std::size_t i = 0; i < slots.size(); ++i) slots[i].alignment = results[i];
  }
  for (const AlignSlot& slot : slots) merge_slot(slot);
}

void TaskRunner::run_local_tasks(const std::vector<std::size_t>& tasks) {
  add_slots(tasks, seq::Read{}, false);
}

void TaskRunner::run_tasks(const seq::Read& remote, std::span<const std::size_t> tasks) {
  add_slots(tasks, remote, true);
}

void TaskRunner::reexecute(const kmer::AlignTask& task, std::uint32_t origin, std::size_t index,
                           const seq::Read& read_a, const seq::Read& read_b) {
  rank_.timers().overhead.start();
  push_slot(task, index, origin, read_a, read_b);
  rank_.timers().overhead.stop();
}

void TaskRunner::add_slots(std::span<const std::size_t> tasks, const seq::Read& remote,
                           bool have_remote) {
  rank_.timers().overhead.start();
  for (const std::size_t t : tasks) {
    const kmer::AlignTask& task = my_tasks_[t];
    const bool remote_is_a = have_remote && task.a == remote.id;
    const bool remote_is_b = have_remote && !remote_is_a;
    const seq::Read& read_a =
        remote_is_a ? remote : local_read(store_, bounds_, rank_.id(), task.a);
    const seq::Read& read_b =
        remote_is_b ? remote : local_read(store_, bounds_, rank_.id(), task.b);
    push_slot(task, t, std::nullopt, read_a, read_b);
  }
  rank_.timers().overhead.stop();
  if (recovery_ != nullptr) submit_pending();
}

void TaskRunner::push_slot(const kmer::AlignTask& task, std::size_t index,
                           std::optional<std::uint32_t> origin, const seq::Read& read_a,
                           const seq::Read& read_b) {
  GNB_CHECK(read_a.id == task.a && read_b.id == task.b);
  AlignSlot& slot = pending_.emplace_back();
  slot.task = task;
  slot.task_index = index;
  slot.origin = origin;
  slot.a = cache_.get(read_a, false);
  slot.b = cache_.get(read_b, task.seed.b_reversed);
  if (pending_.size() < kSlotsPerBatch) return;
  rank_.timers().overhead.stop();
  submit_pending();
  rank_.timers().overhead.start();
}

void TaskRunner::submit_pending() {
  if (pending_.empty()) return;
  if (!pooled()) {
    rank_.timers().overhead.start();
    run_inline(pending_);
    rank_.timers().overhead.stop();
    pending_.clear();
    return;
  }
  auto batch = std::make_unique<AlignPool::Batch>();
  batch->slots.swap(pending_);
  pending_.reserve(kSlotsPerBatch);
  submit(std::move(batch));
}

void TaskRunner::submit(std::unique_ptr<AlignPool::Batch> batch) {
  pool_.submit(std::move(batch));
  if (recovery_ != nullptr) {
    // Recovery mode: completion-log order and crash-point placement must
    // match the serial engine, so every submission completes before the
    // engine moves on. The workers still execute the kernels (the thread
    // interplay TSan must see), only the overlap is given up.
    drain();
    return;
  }
  poll();
  // Bound unmerged work: pending slots pin decoded codes via their cache
  // handles, so a producer far ahead of the workers would grow the heap.
  constexpr std::size_t kMaxPendingBatches = 64;
  while (pool_.pending() > kMaxPendingBatches) merge_batch(pool_.wait_pop());
}

void TaskRunner::poll() {
  if (!pooled()) return;
  while (std::unique_ptr<AlignPool::Batch> batch = pool_.try_pop())
    merge_batch(std::move(batch));
}

void TaskRunner::drain() {
  submit_pending();
  if (!pooled()) return;
  while (std::unique_ptr<AlignPool::Batch> batch = pool_.wait_pop())
    merge_batch(std::move(batch));
}

bool TaskRunner::drained() const {
  return pending_.empty() && (!pooled() || pool_.pending() == 0);
}

void TaskRunner::merge_batch(std::unique_ptr<AlignPool::Batch> batch) {
  if (batch->error) std::rethrow_exception(batch->error);
  rank_.timers().overhead.start();
  for (const AlignSlot& slot : batch->slots) merge_slot(slot);
  rank_.timers().overhead.stop();
}

void TaskRunner::flush() {
  GNB_CHECK_MSG(drained(), "TaskRunner::flush before drain");
  // Workers never touch the rank's stopwatches; their aggregate kernel time
  // lands in the compute phase here, at the boundary.
  rank_.timers().compute.add(pool_.worker_seconds());
  stat::ComputeCounters& c = result_.compute;
  c.threads = pool_.threads();
  const ReadCache::Stats& stats = cache_.stats();
  c.cache_hits = stats.hits;
  c.cache_misses = stats.misses;
  c.cache_evictions = stats.evictions;
  c.cache_peak_bytes = stats.peak_bytes;
  c.pool_tasks = pool_.tasks_executed();
  c.pool_batches = pool_.batches_submitted();
  // Kernel accounting: pooled work lands in the workers' backends, inline
  // work in aligner_; exactly one of the two is nonzero per phase.
  align::BatchStats kernel = pool_.kernel_stats();
  kernel += aligner_->stats();
  const align::BatchAlignerInfo info = aligner_->info();
  c.kernel_backend = info.backend_id;
  c.kernel_lanes = info.lanes;
  c.kernel_batches = kernel.batches;
  c.kernel_tasks = kernel.tasks;
  c.kernel_cells = kernel.cells;
  c.kernel_lane_steps = kernel.lane_steps;
  c.kernel_lane_steps_active = kernel.lane_steps_active;
}

}  // namespace gnb::core
