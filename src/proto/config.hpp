#pragma once
// The single set of coordination-protocol knobs shared by the real engines
// (core::bsp_align / core::async_align) and the analytic machine simulator
// (sim::simulate_bsp / sim::simulate_async). Keeping the knobs — and the
// arithmetic that interprets them — in one place is what makes "what we
// simulate is what we run" a checkable invariant (see tests/test_parity).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace gnb::proto {

/// Fallback BSP aggregation budget when no per-core capacity is known: the
/// real engines run on hosts the runtime does not probe, so an explicit,
/// documented constant stands in for "memory_per_core minus resident".
inline constexpr std::uint64_t kDefaultBspRoundBudget = 64ull << 20;

/// Floor for a capacity-*derived* budget: below this, per-peer alltoallv
/// setup dominates and the round count explodes meaninglessly. Explicit
/// budgets are honored exactly (tests drive them below this on purpose).
inline constexpr std::uint64_t kMinDerivedBudget = 1ull << 16;

/// Test/CI hook: resolve a compute-thread count from the
/// GNB_COMPUTE_THREADS environment variable (unset, empty, zero, or
/// unparsable → `fallback`). ProtoConfig's default `compute_threads` is
/// seeded through this, so the TSan job can drive the whole default-config
/// test matrix through the worker pool without touching every fixture;
/// tests that assert *serial* semantics pin `compute_threads = 1`
/// explicitly.
std::size_t compute_threads_from_env(std::size_t fallback = 1);

/// Which alignment-kernel backend the compute layer batches tasks through
/// (align::BatchAligner). `kAuto` resolves at runtime to the widest backend
/// the host CPU supports; every backend is bit-identical to the scalar
/// oracle, so the knob is a pure throughput choice.
enum class BatchAlignerKind : std::uint8_t {
  kScalar,  // one xdrop_align call per task (the byte-identity oracle)
  kSimd,    // row-vectorized kernel: 32 int8 cells per AVX2 vector where the
            // host has AVX2 and the scoring fits, else 8 int32 cells (portable)
  kAuto,    // runtime CPU dispatch: simd when the host supports it
};

[[nodiscard]] const char* to_string(BatchAlignerKind kind);

/// Parse "scalar" | "simd" | "auto"; nullopt on anything else.
[[nodiscard]] std::optional<BatchAlignerKind> parse_batch_aligner(std::string_view name);

/// Resolve the backend kind from the GNB_BATCH_ALIGNER environment variable
/// (unset, empty, or unparsable → `fallback`). ProtoConfig's default
/// `batch_aligner` is seeded through this, so CI legs can force the whole
/// default-config test matrix through one backend without touching every
/// fixture; results are bit-identical either way (tests/test_fuzz_parity).
BatchAlignerKind batch_aligner_from_env(BatchAlignerKind fallback = BatchAlignerKind::kAuto);

/// How read payloads are encoded on the exchange wire (seq/wire_codec).
/// DNA is 2-bit-codable, so the uncompressed `kOff` frame (one code byte
/// per base, the paper's char exchange) leaves an easy ~4x on the table.
/// Every mode decodes to bit-identical reads, so the knob changes wire
/// bytes and nothing else — engine *output* is byte-identical across
/// modes (tests/test_wire).
enum class WireCompression : std::uint8_t {
  kOff,       // 1 byte per base: the paper-faithful char exchange
  kPack2,     // 4 bases per byte + N-position sidecar
  kPack2Rle,  // kPack2 + run-length escape for homopolymer runs (>= 4)
  kAuto,      // per read: whichever of kPack2 / kPack2Rle is smaller
};

[[nodiscard]] const char* to_string(WireCompression mode);

/// Parse "off" | "pack2" | "pack2-rle" | "auto"; nullopt on anything else.
[[nodiscard]] std::optional<WireCompression> parse_wire_compression(std::string_view name);

/// Resolve the wire codec from the GNB_WIRE_COMPRESSION environment
/// variable (unset, empty, or unparsable → `fallback`). ProtoConfig's
/// default `wire_compression` is seeded through this so CI legs can force
/// the whole default-config test matrix through one codec; decoded reads
/// are bit-identical either way (tests/test_wire).
WireCompression wire_compression_from_env(WireCompression fallback = WireCompression::kAuto);

/// Coordination-protocol configuration, one set of defaults for both
/// backends (previously core::EngineConfig and sim::SimOptions carried
/// divergent copies of these knobs).
struct ProtoConfig {
  /// BSP: per-rank byte budget for one exchange-compute superstep (send +
  /// receive aggregation buffers, the dominant BSP memory term). 0 derives
  /// the budget from the machine's per-core capacity minus the rank's
  /// resident structures — the paper's "all available memory" policy —
  /// falling back to kDefaultBspRoundBudget when capacity is unknown.
  std::uint64_t bsp_round_budget = 0;

  /// Async: cap on outstanding outgoing RPCs ("limits on outgoing
  /// requests", paper §4.3).
  std::size_t async_window = 64;

  /// Async: aggregate up to this many pulls per message to the same owner
  /// ("on a high-latency network we would expect more aggregation to be
  /// necessary", paper §5). 1 = the paper's one-RPC-per-read design.
  std::size_t async_batch = 1;

  /// Async: progress() polls *of the pull's owner* without a reply before
  /// the pull is re-issued (the timeout doubles per attempt — bounded
  /// exponential backoff). Counting the owner's polls, not the caller's,
  /// keeps an owner that is busy aligning from timing out pulls it has not
  /// had a chance to serve. The engine-level dedup protocol keeps retries
  /// safe: duplicate replies are dropped by the caller and duplicate
  /// requests are served from the callee's reply cache, so at-most-once
  /// pull semantics survive both injected duplicates and spurious retries.
  /// 0 disables retries.
  std::uint64_t rpc_timeout = 1 << 14;

  /// Async: maximum re-issues per pull. Once exhausted the caller keeps
  /// polling (delivery is reliable, only untimely) and counts the timeout.
  std::size_t max_retries = 3;

  /// Intra-rank compute workers (core::AlignPool): alignment-task batches
  /// are drained by this many threads while BSP continues its exchange
  /// rounds and async continues issuing pulls — the paper's "overlap
  /// communication with computation" at the rank level. 1 executes tasks
  /// inline on the rank thread (the pre-pool behavior); any value yields
  /// byte-identical output because slot results are merged in task-index
  /// order. The simulator scales its compute term by the same knob. The
  /// default is 1 (serial), overridable host-wide via GNB_COMPUTE_THREADS.
  std::size_t compute_threads = compute_threads_from_env(1);

  /// Alignment-kernel backend for the batched compute path (inline and
  /// pooled). Any choice yields byte-identical results; kAuto picks the
  /// fastest backend the host CPU supports. Overridable host-wide via
  /// GNB_BATCH_ALIGNER (scalar | simd | auto).
  BatchAlignerKind batch_aligner = batch_aligner_from_env(BatchAlignerKind::kAuto);

  /// Byte bound on the per-rank decoded-read cache (core::ReadCache):
  /// forward and reverse-complement code vectors, LRU-evicted once the
  /// bound is exceeded. 0 = unbounded.
  std::uint64_t read_cache_bytes = 32ull << 20;

  /// Wire codec for every read payload core::ReadShip moves: the BSP round
  /// exchange, the async reply path, and recovery re-fetches. Overridable
  /// host-wide via GNB_WIRE_COMPRESSION (off | pack2 | pack2-rle | auto).
  WireCompression wire_compression = wire_compression_from_env(WireCompression::kAuto);

  /// Ranks per physical node for hierarchy-aware exchange aggregation
  /// (Abduljabbar et al.'s two-level all-to-all). 1 = flat exchange, the
  /// default. When > 1, the BSP engine dedups pulls of the same remote read
  /// across co-located ranks: the lowest co-located requester acts as the
  /// node's proxy and forwards the read to its node peers over an
  /// intra-node alltoallv, so each (node, node) pair ships every read at
  /// most once per round; the simulator costs the same two-level plan
  /// (proto::plan_node_exchange). Valid for the BSP engine without a fault
  /// plan only — check_ranks_per_node rejects anything else.
  std::size_t ranks_per_node = 1;

  /// Upper bound on recovery convergence: the number of
  /// core::RecoveryContext::recover() fixpoint iterations (and distributed
  /// assembly restart attempts) tolerated before the run throws
  /// gnb::UnrecoverableError instead of livelocking under endlessly
  /// flapping membership. 0 = unbounded (the pre-knob behavior).
  std::size_t max_recovery_attempts = 64;
};

/// Throw gnb::Error unless `ranks_per_node` <= 1 or the run is the BSP
/// engine without a fault plan: the async engine has no two-level
/// exchange, and recovery's missing-read report relies on the flat FIFO
/// per-owner serve order that proxy forwarding breaks. The engines, the
/// simulator and gnbody all call this instead of ignoring the knob.
void check_ranks_per_node(std::size_t ranks_per_node, bool bsp_engine, bool faults);

/// Resolve the BSP round budget for one rank. `capacity_bytes` is the
/// per-core memory capacity (0 when unknown, as in the real engines);
/// `resident_bytes` is the rank's resident partition + task structures.
[[nodiscard]] inline std::uint64_t effective_round_budget(const ProtoConfig& config,
                                                          std::uint64_t capacity_bytes,
                                                          std::uint64_t resident_bytes) {
  if (config.bsp_round_budget != 0)
    return std::max<std::uint64_t>(config.bsp_round_budget, 1);
  if (capacity_bytes == 0) return kDefaultBspRoundBudget;
  const std::uint64_t derived = capacity_bytes > resident_bytes
                                    ? capacity_bytes - resident_bytes
                                    : (1ull << 20);
  return std::max(derived, kMinDerivedBudget);
}

}  // namespace gnb::proto
