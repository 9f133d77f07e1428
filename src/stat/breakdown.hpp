#pragma once
// The one phase-breakdown vocabulary for both backends, mirroring the
// paper's runtime categories: alignment computation, computation overhead
// (data-structure traversal, kernel invocation), visible communication, and
// synchronization. The real runtime fills a Breakdown per rank as a view of
// the trace: rt::World::run attributes the spans the rank's threads
// recorded with obs::analysis (compute -> compute, exchange -> comm,
// wait -> sync, overhead and recovery -> overhead), so the seconds are 0
// when nothing was traced. The simulator fills one per virtual rank;
// sim/report, bench/figlib and tools/gnbody all reduce and print through
// this header — no binary hand-formats the four phase columns anymore.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/table.hpp"

namespace gnb::obs {
class MetricsRegistry;
}

namespace gnb::stat {

/// Robustness counters, filled per rank by the runtime and the engines
/// (retry/dedup protocol, BSP payload verification). All-zero in a healthy
/// fault-free run; nonzero under rt::FaultPlan injection — the observable
/// evidence that the hardening actually fired.
struct FaultCounters {
  std::uint64_t retries = 0;            // pull RPCs re-issued after a timeout
  std::uint64_t timeouts = 0;           // timeout events observed by the caller
  std::uint64_t duplicates = 0;         // duplicate deliveries/replies detected
  std::uint64_t checksum_failures = 0;  // BSP round payloads failing verification

  // Recovery counters (crash faults; see core::RecoveryContext).
  std::uint64_t crashes = 0;            // rank deaths this rank observed and recovered from
  std::uint64_t rpc_failures = 0;       // in-flight pulls failed fast on peer death
  std::uint64_t retry_exhausted = 0;    // pulls whose bounded retry budget ran out
  std::uint64_t tasks_reexecuted = 0;   // lost tasks this rank re-executed for dead peers
  std::uint64_t checkpoint_bytes = 0;   // bytes written to stable storage (manifests + logs)

  // Self-healing counters (partition/restart/corrupt faults; see the
  // heartbeat detector in rt::RpcEndpoint, rejoin in rt::World, and the
  // validated durable records in rt::DurableStore).
  std::uint64_t suspected = 0;             // peers this rank's detector suspected
  std::uint64_t false_suspicions = 0;      // suspicions later cleared (peer was alive)
  std::uint64_t rejoins = 0;               // rank comebacks this rank processed
  std::uint64_t corrupt_records = 0;       // durable records failing validation on load
  std::uint64_t fallback_checkpoints = 0;  // loads healed from a valid ancestor record
  double recovery_seconds = 0;             // wall time spent inside the recovery protocol

  /// The single source of truth for the integer counters: metric name,
  /// optional table column (nullptr = not printed, e.g. retry_exhausted),
  /// column scale factor, whether the counter indicates fault activity
  /// (any()), and the member it describes. merge(), any(), the fault
  /// tables, and the obs metrics export all iterate this array — a counter
  /// added here shows up everywhere at once.
  struct Field {
    const char* name;          // metrics-registry name ("fault." prefix added on export)
    const char* column;        // fault-table header, nullptr to omit
    double column_scale;       // table prints value * scale (e.g. bytes -> KB)
    bool in_any;               // counts as "faults happened" for any()
    std::uint64_t FaultCounters::*member;
  };
  [[nodiscard]] static std::span<const Field> fields();

  void merge(const FaultCounters& other) {
    for (const Field& f : fields()) this->*f.member += other.*f.member;
    recovery_seconds += other.recovery_seconds;
  }

  [[nodiscard]] bool any() const {
    for (const Field& f : fields()) {
      if (f.in_any && this->*f.member != 0) return true;
    }
    return false;
  }
};

/// Export every fault counter into a metrics registry under "fault.<name>"
/// (recovery_seconds becomes the integer counter "fault.recovery_us"), so
/// `gnbody --metrics` and the fault tables can never disagree on names.
void export_metrics(const FaultCounters& faults, obs::MetricsRegistry& registry);

/// Intra-rank compute-layer counters, filled per rank by the engines from
/// core::ReadCache / core::AlignPool accounting (the simulator fills only
/// `threads` — it has no cache or pool to measure). Same descriptor-table
/// discipline as FaultCounters: merge(), the compute tables, and the obs
/// metrics export all iterate fields().
struct ComputeCounters {
  std::uint64_t threads = 1;           // compute workers per rank (max on merge)
  std::uint64_t cache_hits = 0;        // decoded-read cache lookups served
  std::uint64_t cache_misses = 0;      // lookups that paid the O(L) decode
  std::uint64_t cache_evictions = 0;   // entries LRU-evicted over the byte bound
  std::uint64_t cache_peak_bytes = 0;  // resident high watermark (max on merge)
  std::uint64_t pool_tasks = 0;        // tasks executed by pool workers
  std::uint64_t pool_batches = 0;      // batches drained through the pool

  // Batch-aligner kernel accounting (align::BatchAligner::stats). The
  // backend id and lane width are per-rank capabilities (max on merge);
  // the rest are work sums. lane_steps vs lane_steps_active gives the
  // SIMD lane occupancy the kernel table prints: the share of vector slots
  // that held a DP cell of the live band.
  std::uint64_t kernel_backend = 0;           // 0 scalar, 1 simd-portable, 2 simd-avx2,
                                              // 3 simd-avx512
  std::uint64_t kernel_lanes = 1;             // DP cells per vector of the running kernel
  std::uint64_t kernel_batches = 0;           // align() calls
  std::uint64_t kernel_tasks = 0;             // tasks aligned through the seam
  std::uint64_t kernel_cells = 0;             // DP cells evaluated by the kernel
  std::uint64_t kernel_lane_steps = 0;        // vector slots issued (`lanes` per chunk)
  std::uint64_t kernel_lane_steps_active = 0; // slots that held a live-band cell

  struct Field {
    const char* name;          // metrics-registry name (obs/spans.hpp taxonomy)
    const char* column;        // compute-table header, nullptr to omit
    double column_scale;       // table prints value * scale
    bool merge_max;            // merge by max (per-rank gauges) instead of sum
    std::uint64_t ComputeCounters::*member;
  };
  [[nodiscard]] static std::span<const Field> fields();

  void merge(const ComputeCounters& other) {
    for (const Field& f : fields()) {
      if (f.merge_max)
        this->*f.member = this->*f.member > other.*f.member ? this->*f.member : other.*f.member;
      else
        this->*f.member += other.*f.member;
    }
  }

  /// Cache hit rate in [0, 1]; 0 when the cache saw no lookups.
  [[nodiscard]] double hit_rate() const {
    const std::uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(lookups);
  }

  /// Kernel lane occupancy in [0, 1]; 1 when no lane steps were issued
  /// (scalar backend, or no work).
  [[nodiscard]] double lane_occupancy() const {
    return kernel_lane_steps == 0 ? 1.0
                                  : static_cast<double>(kernel_lane_steps_active) /
                                        static_cast<double>(kernel_lane_steps);
  }

  /// Human-readable name for a kernel_backend code (the inverse of
  /// align::BatchAlignerInfo::backend_id, kept here so stat does not link
  /// against align).
  [[nodiscard]] static const char* kernel_backend_name(std::uint64_t id);
};

/// Export every compute counter into a metrics registry under its taxonomy
/// name (cache.hits, pool.tasks, ...).
void export_metrics(const ComputeCounters& compute, obs::MetricsRegistry& registry);

/// One rank's phase breakdown (seconds) and peak memory (bytes).
struct Breakdown {
  double compute = 0;   // "Computation (Alignment)"
  double overhead = 0;  // "Computation (Overhead)"
  double comm = 0;      // visible communication latency
  double sync = 0;      // barrier / exit-barrier waiting (imbalance)
  /// Wall seconds from the rank thread's first to its last event of the
  /// run. With pool workers the four categories above sum thread-seconds,
  /// so they can exceed it.
  double wall = 0;
  std::uint64_t peak_memory = 0;
  FaultCounters faults;
  ComputeCounters compute_layer;  // cache/pool activity (engines fill per rank)

  [[nodiscard]] double total() const { return compute + overhead + comm + sync; }
};

/// Global reduction across ranks (the paper computes these via MPI
/// reductions excluded from timed regions), plus the protocol counters both
/// backends report from the shared proto::ExchangePlan.
struct Summary {
  double runtime = 0;       // phase duration
  double compute_avg = 0;   // mean "Computation (Alignment)" across ranks
  double overhead_avg = 0;  // mean "Computation (Overhead)"
  double comm_avg = 0;      // mean visible communication
  double sync_avg = 0;      // mean synchronization (imbalance waiting)
  double compute_min = 0, compute_max = 0;  // Fig-5 extremes
  double load_imbalance = 1;                // max/mean of per-rank compute
  std::uint64_t peak_memory_max = 0;        // Fig-11 max per-core footprint
  std::uint64_t rounds = 1;                 // BSP supersteps
  std::uint64_t messages = 0;               // buffers / RPCs on the wire
  std::uint64_t exchange_bytes = 0;         // wire payload exchanged (codec frames)
  /// Off-codec-equivalent of exchange_bytes (wire.raw_bytes): invariant
  /// across compression modes, so raw/sent is the compression ratio.
  std::uint64_t wire_raw_bytes = 0;
  /// Wire payload shipped (wire.sent_bytes). Equals the received total in
  /// a fault-free run — the byte-conservation invariant.
  std::uint64_t wire_sent_bytes = 0;
  FaultCounters faults;                     // summed across ranks
  ComputeCounters compute_layer;            // cache/pool counters merged across ranks

  [[nodiscard]] double comm_fraction() const { return runtime > 0 ? comm_avg / runtime : 0; }
  /// Compression ratio raw/sent; 1 when either side is unknown (zero).
  [[nodiscard]] double compression_ratio() const {
    return (wire_raw_bytes == 0 || wire_sent_bytes == 0)
               ? 1.0
               : static_cast<double>(wire_raw_bytes) / static_cast<double>(wire_sent_bytes);
  }
};

/// Export a full summary into a metrics registry: the exchange protocol
/// counters (exchange.bytes/messages, exchange.rounds and mem.peak_bytes
/// as gauges) plus the fault and compute-layer counters through their
/// descriptor tables. bench/figlib rows and `gnbody --metrics` both go
/// through this, so BENCH_*.json and the metrics file can never disagree
/// on names — and `gnbody perf diff` can gate either.
void export_metrics(const Summary& summary, obs::MetricsRegistry& registry);

/// Reduce per-rank breakdowns. `runtime` < 0 defaults it to the longest
/// rank wall extent (Breakdown::wall); comm_fraction() is measured against
/// it.
[[nodiscard]] Summary summarize(std::span<const Breakdown> ranks, double runtime = -1.0);

/// The standard breakdown table schema: `labels` name the leading key
/// columns (e.g. {"nodes", "engine"}), followed by the phase and protocol
/// columns every binary prints identically.
[[nodiscard]] std::vector<std::string> breakdown_headers(std::vector<std::string> labels);

/// Append one row matching breakdown_headers(labels).
void add_breakdown_row(Table& table, std::vector<Table::Cell> labels, const Summary& summary);

/// The fault-counter table schema (printed by `gnbody --faults` and chaos
/// harnesses): key columns, then retry/timeout/duplicate/checksum columns.
[[nodiscard]] std::vector<std::string> fault_headers(std::vector<std::string> labels);

/// Append one row matching fault_headers(labels).
void add_fault_row(Table& table, std::vector<Table::Cell> labels, const Summary& summary);

/// The compute-layer table schema (cache hit rate, pool throughput):
/// key columns, then threads/cache/pool columns.
[[nodiscard]] std::vector<std::string> compute_headers(std::vector<std::string> labels);

/// Append one row matching compute_headers(labels).
void add_compute_row(Table& table, std::vector<Table::Cell> labels, const Summary& summary);

/// The batch-aligner kernel table schema: key columns, then backend, lane
/// width, batches, tasks, cells and lane-occupancy columns.
[[nodiscard]] std::vector<std::string> kernel_headers(std::vector<std::string> labels);

/// Append one row matching kernel_headers(labels).
void add_kernel_row(Table& table, std::vector<Table::Cell> labels, const Summary& summary);

}  // namespace gnb::stat
