#pragma once
// The pluggable batch-alignment seam: the compute layer hands *batches* of
// seed-and-extend tasks to a backend instead of invoking xdrop_align one
// pair at a time. Two backends exist today — a scalar wrapper around
// xdrop_align (the byte-identity oracle) and a row-vectorized SIMD kernel
// that evaluates each extension's DP rows 16 int16 cells per AVX2 vector, or
// 8 int32 cells in its portable form — and the same interface is where a
// GPU backend plugs in next (the structural fix diBELLA's follow-up work
// applies to this N-body bottleneck).
//
// Contract: every backend returns bit-identical Alignments (score,
// coordinates, cells) for the same tasks. That is what makes `auto` a safe
// default and what tests/test_fuzz_parity enforces across backends, batch
// shapes and thread counts.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "align/result.hpp"
#include "align/xdrop.hpp"
#include "proto/config.hpp"

namespace gnb::align {

/// One seed-and-extend task, resolved to decoded code buffers. `b` must
/// already be in the seed's orientation (reverse-complemented when
/// seed.b_reversed) — exactly the input contract of xdrop_align.
struct AlignTask {
  std::span<const std::uint8_t> a;
  std::span<const std::uint8_t> b;
  Seed seed;
};

/// Capability report of a backend instance.
struct BatchAlignerInfo {
  const char* name = "scalar";   // human-readable backend name
  std::uint64_t backend_id = 0;  // stat::ComputeCounters::kernel_backend code
  std::size_t lanes = 1;         // DP cells per vector of the running kernel (1 = scalar)
  bool simd = false;             // true for the row-vectorized kernel
};

/// Cumulative kernel accounting since construction. lane_steps counts every
/// vector slot the kernel issued (`lanes` per chunk of a DP row after
/// row 0); lane_steps_active counts the slots that held an evaluated cell
/// of the band — their ratio is the lane occupancy the breakdown tables
/// report (scalar backends are 100% occupied by definition: one lane,
/// always live).
struct BatchStats {
  std::uint64_t batches = 0;
  std::uint64_t tasks = 0;
  std::uint64_t cells = 0;
  std::uint64_t lane_steps = 0;
  std::uint64_t lane_steps_active = 0;

  BatchStats& operator+=(const BatchStats& other) {
    batches += other.batches;
    tasks += other.tasks;
    cells += other.cells;
    lane_steps += other.lane_steps;
    lane_steps_active += other.lane_steps_active;
    return *this;
  }
  [[nodiscard]] BatchStats operator-(const BatchStats& other) const {
    return {batches - other.batches, tasks - other.tasks, cells - other.cells,
            lane_steps - other.lane_steps, lane_steps_active - other.lane_steps_active};
  }
  /// Fraction of issued lane-steps that evaluated a live cell, in [0, 1].
  [[nodiscard]] double occupancy() const {
    return lane_steps == 0 ? 1.0
                           : static_cast<double>(lane_steps_active) /
                                 static_cast<double>(lane_steps);
  }
};

/// A batch alignment backend. Instances are single-threaded (they own
/// kernel scratch); give each worker its own instance.
class BatchAligner {
 public:
  virtual ~BatchAligner() = default;

  /// Align every task; result[i] corresponds to tasks[i]. Bit-identical to
  /// xdrop_align(tasks[i].a, tasks[i].b, tasks[i].seed, params) per task.
  virtual std::vector<Alignment> align(std::span<const AlignTask> tasks) = 0;

  [[nodiscard]] virtual BatchAlignerInfo info() const = 0;
  [[nodiscard]] virtual const BatchStats& stats() const = 0;
};

/// Whether this binary carries the AVX2 translation unit (GNB_SIMD=ON and
/// the toolchain could compile it).
[[nodiscard]] bool simd_compiled_in();

/// Whether the host CPU executes AVX2 (runtime cpuid probe).
[[nodiscard]] bool cpu_supports_avx2();

/// Resolve kAuto to a concrete backend for this host: kSimd always (the
/// row kernel has a portable fallback when AVX2 is unavailable). kScalar
/// and kSimd pass through unchanged.
[[nodiscard]] proto::BatchAlignerKind resolve_batch_aligner(proto::BatchAlignerKind kind);

/// Construct a backend. kAuto is resolved via resolve_batch_aligner. kSimd
/// runs the AVX2 row kernel, 16 int16 lanes, when the binary has it, the CPU
/// executes it and the scoring provably fits int16 (DESIGN.md §11; the
/// default x = 49 at unit scoring does); otherwise it runs the portable
/// kernel, 8 int32 lanes. The returned instance owns its scratch and is not
/// thread-safe.
[[nodiscard]] std::unique_ptr<BatchAligner> make_batch_aligner(proto::BatchAlignerKind kind,
                                                               const XDropParams& params);

/// One-line startup report for logs: the requested kind, the resolved
/// backend, its width at the default XDropParams and the CPU features that
/// drove the choice.
[[nodiscard]] std::string batch_aligner_report(proto::BatchAlignerKind requested);

}  // namespace gnb::align
