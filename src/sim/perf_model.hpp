#pragma once
// Performance models of the two engines on the machine model.
//
// Deterministic, analytic-per-rank models (no wall clock): every rank gets
// a virtual timeline split into the paper's categories — alignment
// computation, computation overhead, visible communication, and
// synchronization (waiting for the slowest rank at phase/round ends).
//
// BSP ("maximize bandwidth utilization, amortize message costs"):
//   * one request exchange, then K exchange-compute supersteps where K is
//     forced by the per-core memory budget (aggregation buffers);
//   * per-round comm: alltoallv software setup that scales with P, packing
//     memcpy, and wire time at the worst of per-NIC share and bisection
//     share — large aggregated messages run at full bandwidth;
//   * alignments for received reads are computed inside the round;
//   * the round barrier converts compute imbalance into sync time.
//
// Async ("maximize injection, hide latency with computation"):
//   * one RPC pull per distinct remote read, windowed (max outstanding);
//   * each message pays CPU injection/callback cost, the callee pays
//     service cost; wire time runs at a small-message-derated bandwidth;
//   * network time overlaps the rank's own compute; only the excess is
//     visible communication, plus the first-reply ramp;
//   * the single exit barrier converts end-time imbalance into sync.

#include <cstdint>
#include <vector>

#include "core/calibrate.hpp"
#include "proto/config.hpp"
#include "rt/fault.hpp"
#include "sim/assignment.hpp"
#include "sim/machine.hpp"
#include "stat/breakdown.hpp"

namespace gnb::sim {

struct SimOptions {
  core::CostCalibration calibration;
  /// §4.3 comm-benchmarking mode: drop the alignment-kernel time.
  bool skip_compute = false;
  /// Coordination-protocol knobs (round budget, RPC window, pull batching,
  /// wire codec, ranks_per_node) — the same structure and defaults
  /// core::EngineConfig carries, so the costed protocol is the executed
  /// one (src/proto). With ranks_per_node > 1 (BSP without a fault plan
  /// only, as in the engine) simulate_bsp costs the two-level plan from
  /// proto::plan_node_exchange: node-deduped inter-node traffic, coalesced
  /// per-node-pair messages, and alltoallv setup that scales with
  /// nodes + ranks_per_node instead of total ranks.
  proto::ProtoConfig proto;
  /// Async variant: RDMA-style one-sided pulls instead of RPCs — no callee
  /// CPU service, but a data-structure lookup needs an extra round trip
  /// (index get, then data get), the trade-off of Kalia et al. the paper
  /// cites and leaves to future work (§3.2).
  bool async_rdma = false;
  /// Effective bandwidth fraction achieved by per-read-sized RPC replies
  /// versus large aggregated buffers.
  double small_message_efficiency = 0.35;
  /// Same idea on the global (bisection) channel: per-read messages carry
  /// header and routing overhead that aggregated buffers amortize.
  double small_message_bisection_efficiency = 0.65;
  /// Fraction of a rank's busy time during which the network can actually
  /// stream in the async engine: progress happens only at polling points,
  /// so overlap is imperfect.
  double overlap_efficiency = 0.25;
  /// Packing/unpacking memcpy bandwidth for BSP aggregation buffers (B/s).
  double pack_bandwidth = 2.0e9;
  /// OS noise: per-rank multiplicative jitter on busy time, uniform in
  /// [0, os_noise]. Models the system-overhead isolation study (Fig. 3).
  double os_noise = 0.002;
  std::uint64_t noise_seed = 7;
  /// Straggler-perturbed timelines: the same rt::FaultPlan the threaded
  /// runtime injects, consulted here for its straggle schedule (one
  /// opportunity per rank per BSP round; entry and exit barriers for
  /// async). Degradation under faults is thereby both executed (rt) and
  /// simulated (here) from one replayable seed. Disabled by default.
  rt::FaultPlan faults;
  /// --- graph-phase cost terms (phases 4-6; simulate_assembly) ---
  /// CPU cost of one edge operation: the hash-insert at build, the
  /// snapshot scan + mark check at reduction, the step resolution and
  /// walk advance at contig generation.
  double graph_edge_op = 60e-9;
  /// Surviving dovetail edges (directed edge + mirror) per alignment task,
  /// after acceptance and containment filtering — converts the
  /// assignment's task counts into graph sizes.
  double graph_edges_per_task = 0.5;
  /// Wire bytes per serialized edge or reduction mark (u64 from, u64 to,
  /// u32 overlap, u32 score — pipeline::pack_assembly's edge frame).
  std::uint64_t graph_edge_bytes = 24;
  /// Snapshot rounds the reduction fixpoint executes: one marking round
  /// plus the zero-fresh confirmation round (Myers marks converge in 2;
  /// see graph::OverlapGraph::reduce_transitive).
  std::uint64_t graph_reduce_rounds = 2;
  /// Emit the engines' span taxonomy (obs/spans.hpp) into the process
  /// Tracer at *virtual* timestamps — one "sim node N" process per node,
  /// one "core C" track per rank — so a simulated run opens side-by-side
  /// with a real one in Perfetto. Requires obs::Tracer to be enabled.
  bool trace = false;
};

/// Per-rank virtual timelines land in the backend-shared breakdown record
/// (gnb::stat::Breakdown), the same one rt snapshots for the real engines.
struct SimResult {
  std::vector<stat::Breakdown> ranks;
  double runtime = 0;        // phase duration = max rank total
  std::uint64_t rounds = 0;  // BSP supersteps (1 when memory suffices)
  std::uint64_t messages = 0;         // from the shared proto::ExchangePlan
  std::uint64_t exchange_bytes = 0;   // wire payload pulled (codec frames)
  /// Off-codec-equivalent of exchange_bytes — the same wire.raw_bytes
  /// counter the engines report, invariant across compression modes.
  std::uint64_t wire_raw_bytes = 0;
  /// Wire bytes crossing node boundaries. Under two-level aggregation
  /// (proto.ranks_per_node > 1) this is the *deduped* inter-node traffic
  /// from proto::plan_node_exchange — the predicted hierarchy win.
  std::uint64_t inter_node_bytes = 0;
};

SimResult simulate_bsp(const MachineParams& machine, const SimAssignment& assignment,
                       const SimOptions& options);

SimResult simulate_async(const MachineParams& machine, const SimAssignment& assignment,
                         const SimOptions& options);

/// Phases 4-6 (pipeline::run_distributed_assembly) on the machine model:
/// edge-shard build, snapshot-round transitive reduction with witness
/// pulls, and the contig gather/replay/broadcast — emitting the same
/// graph.build / graph.reduce / graph.contig spans the real path emits,
/// at virtual timestamps. Crash schedules in `faults` are costed as the
/// protocol executes them: the attempt runs to the first death's
/// collective, all survivors abandon it, and a full survivor attempt
/// replays from the manifests. `rounds` reports the reduction fixpoint.
SimResult simulate_assembly(const MachineParams& machine, const SimAssignment& assignment,
                            const SimOptions& options);

/// The Fig-11 dashed line: estimated memory to exchange all reads at once =
/// total exchange load / P + average input partition size.
std::uint64_t estimated_exchange_memory(const SimAssignment& assignment);

/// Smallest per-core memory that lets the BSP engine complete the whole
/// exchange in a single superstep at this assignment: the worst rank's
/// resident structures plus its aggregation buffers.
std::uint64_t single_round_capacity(const SimAssignment& assignment);

}  // namespace gnb::sim
