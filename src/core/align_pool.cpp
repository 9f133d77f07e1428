#include "core/align_pool.hpp"

#include <chrono>
#include <utility>

#include "util/error.hpp"

namespace gnb::core {

AlignPool::AlignPool(std::size_t threads, align::XDropParams params,
                     proto::BatchAlignerKind kind)
    : threads_(threads == 0 ? 1 : threads), params_(params), kind_(kind) {
  if (!pooled()) return;
  workers_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

AlignPool::~AlignPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  // jthreads join on destruction; queued-but-unexecuted batches are
  // discarded (reachable only when an engine unwinds through an exception —
  // results are never read in that case).
}

void AlignPool::submit(std::unique_ptr<Batch> batch) {
  GNB_CHECK_MSG(pooled(), "AlignPool::submit without workers (threads <= 1)");
  Batch* raw = batch.get();
  const std::size_t slots = raw->slots.size();
  raw->done = slots == 0;
  {
    std::lock_guard lock(mu_);
    ++batches_submitted_;
    tasks_executed_ += slots;
    queue_.push_back(std::move(batch));
    if (slots != 0) work_.push_back(raw);
  }
  if (slots == 0)
    done_cv_.notify_all();  // empty batch: complete on arrival
  else
    work_cv_.notify_all();
}

std::unique_ptr<AlignPool::Batch> AlignPool::try_pop() {
  std::lock_guard lock(mu_);
  if (queue_.empty() || !queue_.front()->done) return nullptr;
  std::unique_ptr<Batch> batch = std::move(queue_.front());
  queue_.pop_front();
  return batch;
}

std::unique_ptr<AlignPool::Batch> AlignPool::wait_pop() {
  std::unique_lock lock(mu_);
  if (queue_.empty()) return nullptr;
  done_cv_.wait(lock, [&] { return queue_.front()->done; });
  std::unique_ptr<Batch> batch = std::move(queue_.front());
  queue_.pop_front();
  return batch;
}

std::size_t AlignPool::pending() const {
  std::lock_guard lock(mu_);
  return queue_.size();
}

double AlignPool::worker_seconds() const {
  std::lock_guard lock(mu_);
  return worker_seconds_;
}

std::uint64_t AlignPool::tasks_executed() const {
  std::lock_guard lock(mu_);
  return tasks_executed_;
}

std::uint64_t AlignPool::batches_submitted() const {
  std::lock_guard lock(mu_);
  return batches_submitted_;
}

align::BatchStats AlignPool::kernel_stats() const {
  std::lock_guard lock(mu_);
  return kernel_stats_;
}

void AlignPool::worker_loop() {
  // One backend per worker: BatchAligner instances own kernel scratch and
  // are single-threaded by contract.
  const std::unique_ptr<align::BatchAligner> aligner =
      align::make_batch_aligner(kind_, params_);
  align::BatchStats reported;  // stats already folded into kernel_stats_
  std::vector<align::AlignTask> tasks;
  for (;;) {
    Batch* batch = nullptr;
    {
      std::unique_lock lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !work_.empty(); });
      if (stop_) return;
      batch = work_.front();
      work_.pop_front();
    }

    std::exception_ptr error;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      tasks.clear();
      tasks.reserve(batch->slots.size());
      for (const AlignSlot& slot : batch->slots)
        tasks.push_back(align::AlignTask{*slot.a, *slot.b, slot.task.seed});
      const std::vector<align::Alignment> results = aligner->align(tasks);
      for (std::size_t i = 0; i < batch->slots.size(); ++i)
        batch->slots[i].alignment = results[i];
    } catch (...) {
      error = std::current_exception();
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const align::BatchStats delta = aligner->stats() - reported;
    reported = aligner->stats();

    bool front_done = false;
    {
      std::lock_guard lock(mu_);
      worker_seconds_ += seconds;
      kernel_stats_ += delta;
      if (error && !batch->error) batch->error = error;
      batch->done = true;
      front_done = !queue_.empty() && queue_.front().get() == batch;
    }
    // Waking wait_pop only when the *front* batch completes keeps the FIFO
    // contract cheap; try_pop never blocks, so out-of-order completions are
    // picked up at the next poll.
    if (front_done) done_cv_.notify_all();
  }
}

}  // namespace gnb::core
