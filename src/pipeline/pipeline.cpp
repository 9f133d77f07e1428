#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace gnb::pipeline {

std::uint64_t TaskSet::total_tasks() const {
  std::uint64_t total = 0;
  for (const auto& tasks : per_rank) total += tasks.size();
  return total;
}

std::vector<kmer::AlignTask> TaskSet::sorted_union() const {
  std::vector<kmer::AlignTask> all;
  all.reserve(total_tasks());
  for (const auto& tasks : per_rank) all.insert(all.end(), tasks.begin(), tasks.end());
  std::sort(all.begin(), all.end(), [](const kmer::AlignTask& x, const kmer::AlignTask& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  });
  return all;
}

void check_nranks(std::uint64_t nranks) {
  GNB_THROW_IF(nranks < 1, "rank count must be at least 1, got " << nranks);
}

std::vector<seq::ReadId> compute_bounds(const seq::ReadStore& store, std::size_t nranks) {
  check_nranks(nranks);
  std::vector<std::size_t> lengths;
  lengths.reserve(store.size());
  for (const auto& read : store.reads()) lengths.push_back(read.length());
  return seq::partition_by_size(lengths, nranks);
}

std::vector<std::vector<kmer::AlignTask>> assign_tasks(
    const std::vector<kmer::AlignTask>& tasks, const std::vector<seq::ReadId>& bounds) {
  GNB_CHECK(bounds.size() >= 2);
  const std::size_t nranks = bounds.size() - 1;
  // Visit order: (hash, index) pairs; mix64 is a bijection, so distinct
  // pairs never tie and the index only orders duplicates.
  std::vector<std::pair<std::uint64_t, std::size_t>> order(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i)
    order[i] = {kmer::mix64(kmer::pair_key(tasks[i].a, tasks[i].b)), i};
  std::sort(order.begin(), order.end());

  std::vector<std::uint32_t> dst(tasks.size());
  std::vector<std::uint64_t> load(nranks, 0);
  for (const auto& [hash, i] : order) {
    const std::size_t owner_a = seq::partition_owner(bounds, tasks[i].a);
    const std::size_t owner_b = seq::partition_owner(bounds, tasks[i].b);
    // Owner invariant: candidates are exactly the owners of the two reads.
    // Greedy count balancing between the two.
    std::size_t r = owner_a;
    if (owner_b != owner_a &&
        (load[owner_b] < load[owner_a] ||
         (load[owner_b] == load[owner_a] && owner_b < owner_a))) {
      r = owner_b;
    }
    dst[i] = static_cast<std::uint32_t>(r);
    ++load[r];
  }

  std::vector<std::vector<kmer::AlignTask>> per_rank(nranks);
  for (std::size_t r = 0; r < nranks; ++r) per_rank[r].reserve(load[r]);
  for (std::size_t i = 0; i < tasks.size(); ++i) per_rank[dst[i]].push_back(tasks[i]);
  return per_rank;
}

TaskSet run_serial(const seq::ReadStore& store, const PipelineConfig& config,
                   std::size_t nranks) {
  kmer::check_k(config.k);
  TaskSet result;
  {
    GNB_SPAN(obs::span::kStagePartition, "reads", store.size());
    result.bounds = compute_bounds(store, nranks);
  }
  std::vector<kmer::AlignTask> tasks;
  {
    GNB_SPAN(obs::span::kStageKmerFilter, "k", config.k);
    tasks = kmer::discover_tasks(store, config.k, config.lo, config.hi, config.keep_frac);
  }
  {
    GNB_SPAN(obs::span::kStageTaskAssign, "tasks", tasks.size());
    result.per_rank = assign_tasks(tasks, result.bounds);
  }
  return result;
}

void check_owner_invariant(const TaskSet& tasks) {
  for (std::size_t r = 0; r < tasks.per_rank.size(); ++r) {
    for (const auto& task : tasks.per_rank[r]) {
      const std::size_t owner_a = seq::partition_owner(tasks.bounds, task.a);
      const std::size_t owner_b = seq::partition_owner(tasks.bounds, task.b);
      GNB_CHECK_MSG(owner_a == r || owner_b == r,
                    "task (" << task.a << "," << task.b << ") assigned to rank " << r
                             << " which owns neither read (owners " << owner_a << ", "
                             << owner_b << ")");
    }
  }
}

}  // namespace gnb::pipeline
