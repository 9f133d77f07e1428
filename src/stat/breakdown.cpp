#include "stat/breakdown.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "util/stats.hpp"

namespace gnb::stat {

std::span<const FaultCounters::Field> FaultCounters::fields() {
  static constexpr Field kFields[] = {
      {"retries", "retries", 1.0, true, &FaultCounters::retries},
      {"timeouts", "timeouts", 1.0, true, &FaultCounters::timeouts},
      {"duplicates", "duplicates", 1.0, true, &FaultCounters::duplicates},
      {"checksum_failures", "checksum_fail", 1.0, true, &FaultCounters::checksum_failures},
      {"crashes", "crashes", 1.0, true, &FaultCounters::crashes},
      {"rpc_failures", "rpc_fail", 1.0, true, &FaultCounters::rpc_failures},
      {"retry_exhausted", nullptr, 1.0, true, &FaultCounters::retry_exhausted},
      {"tasks_reexecuted", "reexec", 1.0, true, &FaultCounters::tasks_reexecuted},
      {"checkpoint_bytes", "ckpt_kb", 1e-3, false, &FaultCounters::checkpoint_bytes},
      {"suspected", "suspected", 1.0, true, &FaultCounters::suspected},
      {"false_suspicions", "false_susp", 1.0, true, &FaultCounters::false_suspicions},
      {"rejoins", "rejoins", 1.0, true, &FaultCounters::rejoins},
      {"corrupt_records", "corrupt", 1.0, true, &FaultCounters::corrupt_records},
      {"fallback_checkpoints", "fallback", 1.0, true, &FaultCounters::fallback_checkpoints},
  };
  return kFields;
}

void export_metrics(const FaultCounters& faults, obs::MetricsRegistry& registry) {
  for (const FaultCounters::Field& f : FaultCounters::fields()) {
    registry.add(std::string("fault.") + f.name, faults.*f.member);
  }
  registry.add("fault.recovery_us",
               static_cast<std::uint64_t>(std::llround(faults.recovery_seconds * 1e6)));
}

std::span<const ComputeCounters::Field> ComputeCounters::fields() {
  static constexpr Field kFields[] = {
      {obs::metric::kPoolThreads, "threads", 1.0, true, &ComputeCounters::threads},
      {obs::metric::kCacheHits, "cache_hits", 1.0, false, &ComputeCounters::cache_hits},
      {obs::metric::kCacheMisses, "cache_miss", 1.0, false, &ComputeCounters::cache_misses},
      {obs::metric::kCacheEvictions, "evictions", 1.0, false, &ComputeCounters::cache_evictions},
      {obs::metric::kCachePeakBytes, "cache_kb", 1e-3, true, &ComputeCounters::cache_peak_bytes},
      {obs::metric::kPoolTasks, "pool_tasks", 1.0, false, &ComputeCounters::pool_tasks},
      {obs::metric::kPoolBatches, nullptr, 1.0, false, &ComputeCounters::pool_batches},
      // Kernel counters print through the dedicated kernel table (backend
      // needs name mapping, occupancy is a ratio) — no compute-table column.
      {obs::metric::kKernelBackend, nullptr, 1.0, true, &ComputeCounters::kernel_backend},
      {obs::metric::kKernelLanes, nullptr, 1.0, true, &ComputeCounters::kernel_lanes},
      {obs::metric::kKernelBatches, nullptr, 1.0, false, &ComputeCounters::kernel_batches},
      {obs::metric::kKernelTasks, nullptr, 1.0, false, &ComputeCounters::kernel_tasks},
      {obs::metric::kKernelCells, nullptr, 1.0, false, &ComputeCounters::kernel_cells},
      {obs::metric::kKernelLaneSteps, nullptr, 1.0, false, &ComputeCounters::kernel_lane_steps},
      {obs::metric::kKernelLaneStepsActive, nullptr, 1.0, false,
       &ComputeCounters::kernel_lane_steps_active},
  };
  return kFields;
}

const char* ComputeCounters::kernel_backend_name(std::uint64_t id) {
  switch (id) {
    case 0: return "scalar";
    case 1: return "simd-portable";
    case 2: return "simd-avx2";
    case 3: return "simd-avx512";
    default: return "unknown";
  }
}

void export_metrics(const ComputeCounters& compute, obs::MetricsRegistry& registry) {
  for (const ComputeCounters::Field& f : ComputeCounters::fields()) {
    if (f.merge_max)
      registry.gauge_max(f.name, compute.*f.member);
    else
      registry.add(f.name, compute.*f.member);
  }
}

void export_metrics(const Summary& summary, obs::MetricsRegistry& registry) {
  registry.add(obs::metric::kExchangeBytes, summary.exchange_bytes);
  registry.add(obs::metric::kExchangeMessages, summary.messages);
  registry.add(obs::metric::kWireRawBytes, summary.wire_raw_bytes);
  registry.add(obs::metric::kWireSentBytes, summary.wire_sent_bytes);
  registry.gauge_max(obs::metric::kExchangeRounds, summary.rounds);
  registry.gauge_max(obs::metric::kMemPeakBytes, summary.peak_memory_max);
  export_metrics(summary.faults, registry);
  export_metrics(summary.compute_layer, registry);
}

Summary summarize(std::span<const Breakdown> ranks, double runtime) {
  Summary summary;
  RunningStats compute, overhead, comm, sync;
  double wall_max = 0;
  for (const Breakdown& b : ranks) {
    compute.add(b.compute);
    overhead.add(b.overhead);
    comm.add(b.comm);
    sync.add(b.sync);
    wall_max = std::max(wall_max, b.wall);
    summary.peak_memory_max = std::max(summary.peak_memory_max, b.peak_memory);
    summary.faults.merge(b.faults);
    summary.compute_layer.merge(b.compute_layer);
  }
  summary.runtime = runtime < 0 ? wall_max : runtime;
  summary.compute_avg = compute.mean();
  summary.overhead_avg = overhead.mean();
  summary.comm_avg = comm.mean();
  summary.sync_avg = sync.mean();
  summary.compute_min = compute.min();
  summary.compute_max = compute.max();
  summary.load_imbalance = compute.imbalance();
  return summary;
}

std::vector<std::string> breakdown_headers(std::vector<std::string> labels) {
  for (const char* column : {"runtime_s", "compute_s", "overhead_s", "comm_s", "sync_s",
                             "comm_%", "rounds", "messages", "exchange_mb", "raw_mb",
                             "compress_x"})
    labels.emplace_back(column);
  return labels;
}

void add_breakdown_row(Table& table, std::vector<Table::Cell> labels, const Summary& summary) {
  labels.emplace_back(summary.runtime);
  labels.emplace_back(summary.compute_avg);
  labels.emplace_back(summary.overhead_avg);
  labels.emplace_back(summary.comm_avg);
  labels.emplace_back(summary.sync_avg);
  labels.emplace_back(100.0 * summary.comm_fraction());
  labels.emplace_back(summary.rounds);
  labels.emplace_back(summary.messages);
  labels.emplace_back(static_cast<double>(summary.exchange_bytes) / 1e6);
  labels.emplace_back(static_cast<double>(summary.wire_raw_bytes) / 1e6);
  labels.emplace_back(summary.compression_ratio());
  table.add_row(std::move(labels));
}

std::vector<std::string> fault_headers(std::vector<std::string> labels) {
  for (const FaultCounters::Field& f : FaultCounters::fields()) {
    if (f.column != nullptr) labels.emplace_back(f.column);
  }
  labels.emplace_back("recovery_s");
  return labels;
}

void add_fault_row(Table& table, std::vector<Table::Cell> labels, const Summary& summary) {
  for (const FaultCounters::Field& f : FaultCounters::fields()) {
    if (f.column == nullptr) continue;
    if (f.column_scale == 1.0) {
      labels.emplace_back(summary.faults.*f.member);
    } else {
      labels.emplace_back(static_cast<double>(summary.faults.*f.member) * f.column_scale);
    }
  }
  labels.emplace_back(summary.faults.recovery_seconds);
  table.add_row(std::move(labels));
}

std::vector<std::string> compute_headers(std::vector<std::string> labels) {
  for (const ComputeCounters::Field& f : ComputeCounters::fields()) {
    if (f.column != nullptr) labels.emplace_back(f.column);
  }
  labels.emplace_back("hit_%");
  return labels;
}

void add_compute_row(Table& table, std::vector<Table::Cell> labels, const Summary& summary) {
  for (const ComputeCounters::Field& f : ComputeCounters::fields()) {
    if (f.column == nullptr) continue;
    if (f.column_scale == 1.0) {
      labels.emplace_back(summary.compute_layer.*f.member);
    } else {
      labels.emplace_back(static_cast<double>(summary.compute_layer.*f.member) * f.column_scale);
    }
  }
  labels.emplace_back(100.0 * summary.compute_layer.hit_rate());
  table.add_row(std::move(labels));
}

std::vector<std::string> kernel_headers(std::vector<std::string> labels) {
  for (const char* column :
       {"backend", "lanes", "batches", "tasks", "Mcells", "occupancy_%"})
    labels.emplace_back(column);
  return labels;
}

void add_kernel_row(Table& table, std::vector<Table::Cell> labels, const Summary& summary) {
  const ComputeCounters& c = summary.compute_layer;
  labels.emplace_back(ComputeCounters::kernel_backend_name(c.kernel_backend));
  labels.emplace_back(c.kernel_lanes);
  labels.emplace_back(c.kernel_batches);
  labels.emplace_back(c.kernel_tasks);
  labels.emplace_back(static_cast<double>(c.kernel_cells) / 1e6);
  labels.emplace_back(100.0 * c.lane_occupancy());
  table.add_row(std::move(labels));
}

}  // namespace gnb::stat
