#include "pipeline/pipeline.hpp"

#include <algorithm>
#include <tuple>

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

std::vector<seq::ReadId> compute_bounds(const seq::ReadStore& store, std::size_t nranks) {
  std::vector<std::size_t> lengths;
  lengths.reserve(store.size());
  for (const auto& read : store.reads()) lengths.push_back(read.length());
  return seq::partition_by_size(lengths, nranks);
}

std::vector<std::vector<kmer::AlignTask>> assign_tasks(
    const std::vector<kmer::AlignTask>& tasks, const std::vector<seq::ReadId>& bounds) {
  GNB_CHECK(bounds.size() >= 2);
  const std::size_t nranks = bounds.size() - 1;
  std::vector<std::vector<kmer::AlignTask>> per_rank(nranks);
  std::vector<std::uint64_t> load(nranks, 0);

  for (const auto& task : tasks) {
    const std::size_t owner_a = seq::partition_owner(bounds, task.a);
    const std::size_t owner_b = seq::partition_owner(bounds, task.b);
    // Owner invariant: candidates are exactly the owners of the two reads.
    // Greedy count balancing between the two.
    std::size_t dst = owner_a;
    if (owner_b != owner_a &&
        (load[owner_b] < load[owner_a] ||
         (load[owner_b] == load[owner_a] && owner_b < owner_a))) {
      dst = owner_b;
    }
    per_rank[dst].push_back(task);
    ++load[dst];
  }
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
