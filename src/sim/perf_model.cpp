#include "sim/perf_model.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <unordered_map>

#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "proto/exchange_plan.hpp"
#include "rt/durable.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gnb::sim {

namespace {

/// Virtual-clock trace emission: one Perfetto process per simulated node,
/// one thread track per rank, stamped with the model's analytic timeline
/// instead of the wall clock. Active only when SimOptions::trace is set
/// AND the process Tracer is recording (and GNB_TRACE is compiled in).
class SimTracer {
 public:
  SimTracer(const MachineParams& machine, std::size_t nranks, bool want) {
#if GNB_TRACE_ENABLED
    obs::Tracer& tracer = obs::Tracer::instance();
    if (!want || !tracer.enabled()) return;
    buffers_.resize(nranks, nullptr);
    for (std::size_t r = 0; r < nranks; ++r) {
      const auto node = static_cast<std::uint32_t>(machine.node_of(r));
      const auto core = static_cast<std::uint32_t>(r % machine.cores_per_node);
      buffers_[r] = tracer.buffer(node, core, "sim node " + std::to_string(node),
                                  "core " + std::to_string(core), "virtual");
    }
#else
    (void)machine;
    (void)nranks;
    (void)want;
#endif
  }

  [[nodiscard]] bool on() const { return !buffers_.empty(); }

  /// "X" span on rank r's track: [t0, t0 + dur], seconds of virtual time.
  void complete(std::size_t r, const char* name, double t0, double dur,
                const char* k0 = nullptr, std::uint64_t v0 = 0) {
    if (!on() || buffers_[r] == nullptr) return;
    obs::TraceEvent e;
    e.name = name;
    e.phase = obs::TraceEvent::Phase::kComplete;
    e.ts_ns = to_ns(t0);
    e.dur_ns = to_ns(dur);
    e.key0 = k0;
    e.val0 = v0;
    buffers_[r]->push(e);
  }

  void instant(std::size_t r, const char* name, double t, const char* k0 = nullptr,
               std::uint64_t v0 = 0) {
    if (!on() || buffers_[r] == nullptr) return;
    obs::TraceEvent e;
    e.name = name;
    e.phase = obs::TraceEvent::Phase::kInstant;
    e.ts_ns = to_ns(t);
    e.key0 = k0;
    e.val0 = v0;
    buffers_[r]->push(e);
  }

  /// "b"/"e" async pair on rank r's track (rpc pulls).
  void async_pair(std::size_t r, const char* name, std::uint64_t id, double t0, double t1) {
    if (!on() || buffers_[r] == nullptr) return;
    obs::TraceEvent e;
    e.name = name;
    e.phase = obs::TraceEvent::Phase::kAsyncBegin;
    e.ts_ns = to_ns(t0);
    e.id = id;
    buffers_[r]->push(e);
    e.phase = obs::TraceEvent::Phase::kAsyncEnd;
    e.ts_ns = to_ns(t1);
    buffers_[r]->push(e);
  }

 private:
  static std::int64_t to_ns(double seconds) {
    return static_cast<std::int64_t>(std::llround(seconds * 1e9));
  }
  std::vector<obs::TraceBuffer*> buffers_;
};

/// Approximate resident bytes of the task bookkeeping structures.
/// BSP uses flat arrays (paper §4.6); async uses pointer-based std
/// containers with roughly double the footprint.
constexpr std::uint64_t kBspTaskBytes = 48;
constexpr std::uint64_t kAsyncTaskBytes = 96;
constexpr std::uint64_t kAsyncPullBytes = 64;

struct Traffic {
  // Receiver-side pull bytes, split by locality.
  std::vector<std::uint64_t> recv_inter, recv_intra;
  // Server-side (outbound) bytes, split by locality.
  std::vector<std::uint64_t> send_inter, send_intra;
  std::uint64_t cross_total = 0;
};

Traffic analyze_traffic(const MachineParams& machine, const SimAssignment& assignment) {
  const std::size_t p = assignment.nranks();
  Traffic traffic;
  traffic.recv_inter.assign(p, 0);
  traffic.recv_intra.assign(p, 0);
  traffic.send_inter.assign(p, 0);
  traffic.send_intra.assign(p, 0);
  for (std::size_t r = 0; r < p; ++r) {
    for (const Pull& pull : assignment.ranks[r].pulls) {
      if (machine.same_node(r, pull.owner)) {
        traffic.recv_intra[r] += pull.bytes;
        traffic.send_intra[pull.owner] += pull.bytes;
      } else {
        traffic.recv_inter[r] += pull.bytes;
        traffic.send_inter[pull.owner] += pull.bytes;
        traffic.cross_total += pull.bytes;
      }
    }
  }
  return traffic;
}

/// Two-level traffic split under hierarchy-aware aggregation: nodes are
/// `rpn` consecutive ranks (the engine's grouping, normally set to the
/// machine's cores_per_node), every read a node needs from a remote node
/// crosses the NIC exactly once — to its lowest co-located requester, the
/// proxy — and the other needers receive it as an intra-node forward from
/// the proxy. Total bytes match analyze_traffic; only the split moves.
Traffic analyze_traffic_two_level(const SimAssignment& assignment, std::size_t rpn) {
  const std::size_t p = assignment.nranks();
  Traffic traffic;
  traffic.recv_inter.assign(p, 0);
  traffic.recv_intra.assign(p, 0);
  traffic.send_inter.assign(p, 0);
  traffic.send_intra.assign(p, 0);
  const auto node_of = [rpn](std::size_t rank) -> std::uint64_t { return rank / rpn; };
  std::unordered_map<std::uint64_t, std::size_t> proxy;
  for (std::size_t r = 0; r < p; ++r)
    for (const Pull& pull : assignment.ranks[r].pulls)
      if (node_of(pull.owner) != node_of(r))
        proxy.emplace((node_of(r) << 32) | pull.read, r);
  for (std::size_t r = 0; r < p; ++r) {
    for (const Pull& pull : assignment.ranks[r].pulls) {
      if (node_of(pull.owner) == node_of(r)) {
        traffic.recv_intra[r] += pull.bytes;
        traffic.send_intra[pull.owner] += pull.bytes;
        continue;
      }
      const std::size_t keeper = proxy.at((node_of(r) << 32) | pull.read);
      if (keeper == r) {
        traffic.recv_inter[r] += pull.bytes;
        traffic.send_inter[pull.owner] += pull.bytes;
        traffic.cross_total += pull.bytes;
      } else {
        traffic.recv_intra[r] += pull.bytes;
        traffic.send_intra[keeper] += pull.bytes;
      }
    }
  }
  return traffic;
}

/// Deterministic OS-noise multiplier for a rank.
double noise_multiplier(const SimOptions& options, std::size_t rank) {
  Xoshiro256 rng(options.noise_seed * 0x9E3779B97F4A7C15ULL + rank);
  return 1.0 + options.os_noise * rng.uniform();
}

/// Straggler pause (seconds) rank `r` suffers at collective entry `entry`,
/// from the same hash schedule the threaded runtime replays (rt::fault).
double straggle_pause(const std::optional<rt::FaultInjector>& chaos, std::size_t r,
                      std::uint64_t entry) {
  if (!chaos) return 0.0;
  return static_cast<double>(chaos->straggle_us(static_cast<std::uint32_t>(r), entry)) * 1e-6;
}

/// Self-healing cost model shared by the engine simulations, covering the
/// three fault classes the threaded runtime heals from (partition /
/// restart / corrupt). Counter placement mirrors the runtime:
///  * A partition rides the RPC fabric, so it costs nothing under the BSP
///    engine (`rpc_fabric` false — its collectives use the mail slots, not
///    RPC). Under the async engine each live endpoint of a cut link stalls
///    for the window (a tick is one progress() poll) and, when the window
///    outlives the failure-detector lease, books one suspicion that clears
///    as a false one when the cut heals (the peer was alive all along).
///  * A comeback (restart@ paired with a crash that actually fired) costs
///    every alive rank one extra admission + recovery agreement round;
///    the rejoin itself is counted on the comeback rank, where
///    rt::World::admission_wait counts it.
///  * A corrupted durable record is detected at its first validated load:
///    one quarantine detour, plus an ancestor fallback only for a rewritten
///    manifest (rt::DurableStore's rule). The store's totals fold into
///    rank 0's breakdown, exactly where World::run folds them.
/// Returns the seconds the phase critical path grows by.
double cost_self_healing(const std::optional<rt::FaultInjector>& chaos,
                         const MachineParams& machine, bool rpc_fabric,
                         const std::vector<char>& dead,
                         std::vector<stat::Breakdown>& ranks) {
  if (!chaos) return 0.0;
  const rt::FaultPlan& plan = chaos->plan();
  const std::size_t p = ranks.size();
  const double agree = 3.0 * machine.a2a_setup_per_peer * static_cast<double>(p);
  // Mirrors rt::RpcEndpoint's defaults: the lease (in progress ticks)
  // after which a silent peer is suspected, and the cost of one poll.
  constexpr std::uint64_t kLeaseTicks = 1024;
  constexpr double kTickSeconds = 100e-9;
  double extra = 0.0;

  if (rpc_fabric) {
    for (const rt::PartitionEvent& cut : plan.partitions) {
      double stall_max = 0.0;
      const std::uint32_t ends[2] = {cut.a, cut.b};
      for (const std::uint32_t e : ends) {
        if (e >= p || dead[e]) continue;
        stat::Breakdown& t = ranks[e];
        const double stall = static_cast<double>(cut.duration) * kTickSeconds;
        t.comm += stall;
        t.faults.recovery_seconds += stall;
        stall_max = std::max(stall_max, stall);
        if (cut.duration > kLeaseTicks) {
          t.faults.suspected += 1;
          t.faults.false_suspicions += 1;
        }
      }
      extra += stall_max;  // both endpoints stall concurrently
    }
  }

  for (const rt::RestartEvent& comeback : plan.restarts) {
    if (comeback.rank >= p || !chaos->crash_step(comeback.rank)) continue;
    ranks[comeback.rank].faults.rejoins += 1;
    for (std::size_t r = 0; r < p; ++r) {
      if (dead[r] && r != comeback.rank) continue;
      ranks[r].comm += agree;
      ranks[r].faults.recovery_seconds += agree;
    }
    extra += agree;
  }

  for (const rt::CorruptEvent& corrupt : plan.corrupts) {
    ranks[0].faults.corrupt_records += 1;
    // Only a rewritten manifest (seq > 0) has a valid ancestor to fall back
    // to. A first manifest can only be quarantined, and a log read stops at
    // the longest valid prefix — recovery re-derives the rest.
    if (corrupt.kind == rt::DurableStore::kKindManifest && corrupt.seq > 0)
      ranks[0].faults.fallback_checkpoints += 1;
    ranks[0].comm += agree;
    ranks[0].faults.recovery_seconds += agree;
    extra += agree;
  }
  return extra;
}

/// Per-rank internode bandwidth: the worse of the NIC share and the
/// bisection share (uniform many-to-many traffic).
double internode_bw_per_rank(const MachineParams& machine) {
  const double nic_share =
      machine.nic_bandwidth / static_cast<double>(machine.cores_per_node);
  const double bisection_share =
      machine.bisection_bandwidth() / static_cast<double>(machine.total_ranks());
  return std::max(1.0, std::min(nic_share, bisection_share));
}

double intranode_bw_per_rank(const MachineParams& machine) {
  return std::max(1.0, machine.intranode_bandwidth /
                           static_cast<double>(machine.cores_per_node));
}

}  // namespace

namespace {
std::uint64_t bsp_base_memory(const RankWork& work) {
  return work.partition_bytes + work.total_tasks() * kBspTaskBytes;
}
}  // namespace

std::uint64_t single_round_capacity(const SimAssignment& assignment) {
  std::uint64_t capacity = 0;
  for (std::size_t r = 0; r < assignment.nranks(); ++r) {
    const RankWork& work = assignment.ranks[r];
    capacity = std::max(capacity, bsp_base_memory(work) + work.pull_bytes() +
                                      assignment.serve_bytes[r]);
  }
  return capacity;
}

std::uint64_t estimated_exchange_memory(const SimAssignment& assignment) {
  const std::size_t p = assignment.nranks();
  std::uint64_t exchange_total = 0;
  std::uint64_t partition_total = 0;
  for (const RankWork& work : assignment.ranks) {
    exchange_total += work.pull_bytes();
    partition_total += work.partition_bytes;
  }
  return exchange_total / p + partition_total / p;
}

SimResult simulate_bsp(const MachineParams& machine, const SimAssignment& assignment,
                       const SimOptions& options) {
  const std::size_t p = assignment.nranks();
  GNB_CHECK_MSG(p == machine.total_ranks(),
                "assignment has " << p << " ranks, machine " << machine.total_ranks());
  // Two-level aggregation, under the engine's own rule: BSP without a
  // fault plan only.
  proto::check_ranks_per_node(options.proto.ranks_per_node, /*bsp_engine=*/true,
                              options.faults.enabled());
  const std::size_t rpn = options.proto.ranks_per_node;
  const bool hierarchy = rpn > 1;
  const std::size_t nnodes_g = hierarchy ? (p + rpn - 1) / rpn : 0;
  const bool wire_spans = options.proto.wire_compression != proto::WireCompression::kOff;
  const Traffic traffic = hierarchy ? analyze_traffic_two_level(assignment, rpn)
                                    : analyze_traffic(machine, assignment);
  const double cps = options.calibration.cells_per_second;
  const double ovh = options.calibration.overhead_per_task;
  const double inter_bw = internode_bw_per_rank(machine);
  const double intra_bw = intranode_bw_per_rank(machine);
  // Software alltoallv setup scales with the peer count a rank touches:
  // all p ranks when flat; the co-located ranks plus the coalesced
  // node-level exchange when aggregating (the 512-node win).
  const double setup_peers =
      hierarchy ? static_cast<double>(nnodes_g + rpn) : static_cast<double>(p);
  // Intra-rank compute layer (proto::compute_threads): kernels scale with
  // the worker count, and a pooled rank keeps aligning while the next
  // superstep's alltoallv moves bytes. thread_div is exactly 1.0 when the
  // knob is off, so the serial model is reproduced bit-for-bit.
  const auto threads = std::max<std::size_t>(1, options.proto.compute_threads);
  const auto thread_div = static_cast<double>(threads);
  const bool pooled = threads > 1 && !options.skip_compute;

  SimResult result;
  result.ranks.resize(p);
  SimTracer strace(machine, p, options.trace);

  // --- memory and the round count forced by the aggregation budget, via
  // the same proto arithmetic the real engine evaluates distributively ---
  std::vector<std::uint64_t> base_mem(p), exchange_mem(p);
  std::vector<proto::RankExchangeInput> inputs(p);
  for (std::size_t r = 0; r < p; ++r) {
    const RankWork& work = assignment.ranks[r];
    base_mem[r] = bsp_base_memory(work);
    exchange_mem[r] = work.pull_bytes() + assignment.serve_bytes[r];
    inputs[r].pull_bytes = work.pull_bytes();
    inputs[r].serve_bytes = assignment.serve_bytes[r];
    inputs[r].raw_pull_bytes = work.raw_pull_bytes();
    inputs[r].budget =
        proto::effective_round_budget(options.proto, machine.memory_per_core, base_mem[r]);
  }
  std::uint64_t planned_rounds = 0;
  if (hierarchy) {
    proto::NodePlanInput ninput;
    ninput.ranks_per_node = rpn;
    ninput.pulls.resize(p);
    ninput.budgets.resize(p);
    for (std::size_t r = 0; r < p; ++r) {
      ninput.budgets[r] = inputs[r].budget;
      ninput.pulls[r].reserve(assignment.ranks[r].pulls.size());
      for (const Pull& pull : assignment.ranks[r].pulls)
        ninput.pulls[r].push_back(
            proto::PullRequest{pull.read, pull.owner, pull.bytes, pull.raw_bytes});
    }
    const proto::NodeExchangePlan nplan = proto::plan_node_exchange(ninput, options.proto);
    planned_rounds = nplan.rounds;
    result.messages = nplan.bsp_messages;
    result.exchange_bytes = nplan.exchange_bytes;
    result.wire_raw_bytes = nplan.raw_bytes;
    result.inter_node_bytes = nplan.inter_node_bytes;
  } else {
    const proto::ExchangePlan plan = proto::plan_exchange(inputs, options.proto);
    planned_rounds = plan.rounds;
    result.messages = plan.bsp_messages;
    result.exchange_bytes = plan.exchange_bytes;
    result.wire_raw_bytes = plan.raw_bytes;
    result.inter_node_bytes = traffic.cross_total;
  }
  const std::uint64_t rounds = std::max<std::uint64_t>(1, planned_rounds);
  result.rounds = rounds;
  const auto k = static_cast<double>(rounds);
  // Memory-limited multi-round exchanges lose aggregation efficiency:
  // smaller per-round messages, repeated incast ramp-up, and the per-round
  // max over a lumpy split exceeding 1/K of the overall max. Modeled as a
  // sublinear wire-time penalty in the round count.
  const double round_penalty = std::pow(k, 0.45);

  // --- request exchange (read-id lists): software setup dominates. The
  // hierarchy pre-pass adds one intra-node alltoallv of need lists. ---
  const double request_comm =
      machine.a2a_setup_per_peer * static_cast<double>(p + (hierarchy ? rpn : 0));
  if (strace.on()) {
    for (std::size_t r = 0; r < p; ++r) {
      strace.complete(r, obs::span::kBspIndex, 0.0, 0.0);
      strace.complete(r, obs::span::kBspRequestExchange, 0.0, request_comm);
      strace.complete(r, obs::span::kCollAlltoallv, 0.0, request_comm);
      // The round plan's agreement: the serve-size alltoall and the
      // allreduce_max (an allgather) over rounds_needed, costed in
      // request_comm.
      strace.complete(r, obs::span::kCollAlltoall, request_comm, 0.0);
      strace.complete(r, obs::span::kCollAllgather, request_comm, 0.0);
    }
  }

  // --- exchange-compute supersteps ---
  // Straggler-perturbed timelines: one straggle opportunity per rank per
  // round, at the round barrier — the stalled rank books the pause as sync
  // (it is not computing), every other rank waits it out through busy_max.
  std::optional<rt::FaultInjector> chaos;
  if (options.faults.enabled()) chaos.emplace(options.faults);

  // Crash schedule: crash_round[r] is the first superstep rank r does not
  // complete (== rounds when it survives the phase). The threaded runtime
  // advances one fault step per collective entry, which in the BSP engine
  // is one per superstep, so at_step maps directly onto rounds.
  std::vector<std::uint64_t> crash_round(p, rounds);
  if (chaos)
    for (std::size_t r = 0; r < p; ++r)
      if (const auto step = chaos->crash_step(static_cast<std::uint32_t>(r)))
        crash_round[r] = std::min<std::uint64_t>(*step, rounds);

  std::vector<double> remote_cells(p, 0), remote_tasks(p, 0);
  for (std::size_t r = 0; r < p; ++r)
    for (const Pull& pull : assignment.ranks[r].pulls) {
      remote_cells[r] += static_cast<double>(pull.cells);
      remote_tasks[r] += static_cast<double>(pull.tasks);
    }

  std::vector<double> compute_acc(p, 0), overhead_acc(p, 0), comm_acc(p, 0), sync_acc(p, 0);
  std::vector<double> recovery_acc(p, 0), reexec_tasks(p, 0);
  std::vector<double> local_split(p, 0);  // round-0 local-local share, for the trace
  std::vector<std::uint64_t> crashes_seen(p, 0);
  double runtime = request_comm;

  for (std::uint64_t round = 0; round < rounds; ++round) {
    const double round_start = runtime;
    // MPI_Alltoallv is collective: no rank's call returns before the
    // slowest rank's data has moved, so the *maximum* per-rank wire time
    // is what every rank observes as communication. Exchange-load
    // imbalance (Fig. 6) thereby drives the poor communication scaling the
    // paper reports (§4.2-4.3).
    double round_comm = machine.a2a_setup_per_peer * setup_peers;
    for (std::size_t r = 0; r < p; ++r) {
      const double send_bytes =
          static_cast<double>(traffic.send_inter[r] + traffic.send_intra[r]) / k;
      const double recv_bytes =
          static_cast<double>(traffic.recv_inter[r] + traffic.recv_intra[r]) / k;
      double wire = machine.a2a_setup_per_peer * setup_peers;
      wire += (send_bytes + recv_bytes) / options.pack_bandwidth;  // pack + unpack
      wire += std::max(static_cast<double>(traffic.send_inter[r]),
                       static_cast<double>(traffic.recv_inter[r])) *
              round_penalty / k / inter_bw;
      wire += std::max(static_cast<double>(traffic.send_intra[r]),
                       static_cast<double>(traffic.recv_intra[r])) *
              round_penalty / k / intra_bw;
      round_comm = std::max(round_comm, wire);
    }

    std::vector<std::size_t> survivors, deaths;
    for (std::size_t r = 0; r < p; ++r) {
      if (crash_round[r] > round)
        survivors.push_back(r);
      else if (crash_round[r] == round)
        deaths.push_back(r);
    }

    double busy_max = 0;
    std::vector<double> busy(p, 0);
    std::vector<double> busy_base(p, 0);  // pre-recovery busy, for the trace
    for (std::size_t r : survivors) {
      const RankWork& work = assignment.ranks[r];
      double compute = options.skip_compute ? 0.0 : remote_cells[r] / k / cps / thread_div;
      double overhead = remote_tasks[r] / k * ovh;
      if (round == 0) {  // local-local tasks run before the first exchange
        const double local_compute =
            options.skip_compute ? 0.0
                                 : static_cast<double>(work.local_cells) / cps / thread_div;
        const double local_overhead = static_cast<double>(work.local_tasks) * ovh;
        compute += local_compute;
        overhead += local_overhead;
        local_split[r] = local_compute + local_overhead;
      }
      const double m = noise_multiplier(options, r);
      compute *= m;
      overhead *= m;
      if (round == 0) local_split[r] *= m;
      compute_acc[r] += compute;
      overhead_acc[r] += overhead;
      comm_acc[r] += round_comm;
      const double pause = straggle_pause(chaos, r, round);
      sync_acc[r] += pause;
      busy[r] = compute + overhead + pause;
      busy_base[r] = busy[r];
      if (pause > 0)
        strace.instant(r, obs::span::kFaultStraggle, round_start + round_comm, "us",
                       static_cast<std::uint64_t>(std::llround(pause * 1e6)));
    }

    // Crash recovery: survivors detect the deaths at this superstep's
    // collective, agree on a completion snapshot (the recover() fixpoint's
    // collectives), adopt the dead ranks' read shards, re-pull the reads
    // behind the lost tasks, and split the unfinished work evenly.
    if (!deaths.empty() && !survivors.empty()) {
      const auto s = static_cast<double>(survivors.size());
      const double detect_comm = 3.0 * machine.a2a_setup_per_peer * static_cast<double>(p);
      double lost_cells = 0, lost_tasks = 0, refetch_bytes = 0;
      for (std::size_t d : deaths) {
        const double remaining = static_cast<double>(rounds - crash_round[d]) / k;
        lost_cells += remote_cells[d] * remaining;
        lost_tasks += remote_tasks[d] * remaining;
        if (crash_round[d] == 0) {
          lost_cells += static_cast<double>(assignment.ranks[d].local_cells);
          lost_tasks += static_cast<double>(assignment.ranks[d].local_tasks);
        }
        refetch_bytes += static_cast<double>(assignment.ranks[d].pull_bytes()) * remaining;
      }
      const double extra_compute =
          options.skip_compute ? 0.0 : lost_cells / s / cps / thread_div;
      const double extra_overhead = lost_tasks / s * ovh;
      const double extra_comm = detect_comm + refetch_bytes / s / inter_bw;
      for (std::size_t r : survivors) {
        compute_acc[r] += extra_compute;
        overhead_acc[r] += extra_overhead;
        comm_acc[r] += extra_comm;
        const double recovery_time = extra_compute + extra_overhead + extra_comm;
        recovery_acc[r] += recovery_time;
        reexec_tasks[r] += lost_tasks / s;
        crashes_seen[r] += deaths.size();
        strace.complete(r, obs::span::kRecovery, round_start + round_comm + busy[r],
                        recovery_time);
        strace.instant(r, obs::span::kRecoveryReexec, round_start + round_comm + busy[r],
                       "tasks", static_cast<std::uint64_t>(std::llround(lost_tasks / s)));
        busy[r] += extra_compute + extra_overhead;
      }
      runtime += extra_comm;
    }

    for (std::size_t r : survivors) busy_max = std::max(busy_max, busy[r]);
    for (std::size_t r : survivors) sync_acc[r] += busy_max - busy[r];
    if (pooled && round + 1 < rounds) {
      // Pool workers drain the round's batches while the next superstep's
      // exchange is on the wire: up to overlap_efficiency of the wire time
      // hides busy time. The last round has no following exchange to hide
      // behind — its drain is fully visible (the compute.pool span).
      runtime += round_comm +
                 std::max(0.0, busy_max - options.overlap_efficiency * round_comm);
    } else {
      runtime += round_comm + busy_max;
    }

    if (strace.on()) {
      for (std::size_t d : deaths)
        strace.instant(d, obs::span::kFaultCrash, round_start, "step", crash_round[d]);
      for (std::size_t r : survivors) {
        strace.complete(r, obs::span::kBspRound, round_start, runtime - round_start, "round",
                        round);
        strace.complete(r, obs::span::kCollAlltoallv, round_start, round_comm);
        const double c0 = round_start + round_comm;
        // Same gate as the real engine: codec spans exist iff a codec runs.
        if (wire_spans) {
          strace.complete(r, obs::span::kWireCompress, round_start, 0.0);
          strace.complete(r, obs::span::kWireDecompress, c0, 0.0);
        }
        if (round == 0) {
          strace.complete(r, obs::span::kBspLocalTasks, c0, local_split[r]);
          strace.complete(r, obs::span::kBspCompute, c0 + local_split[r],
                          busy_base[r] - local_split[r]);
        } else {
          strace.complete(r, obs::span::kBspCompute, c0, busy_base[r]);
        }
      }
    }
  }

  if (strace.on()) {
    for (std::size_t r = 0; r < p; ++r) {
      // compute.batch iff the kernels run at all (the real engine emits
      // one per kernel call), compute.pool iff workers are active (the
      // real engine's gate) — the final drain before the exit barrier.
      if (!options.skip_compute) strace.complete(r, obs::span::kComputeBatch, runtime, 0.0);
      if (pooled) strace.complete(r, obs::span::kComputePool, runtime, 0.0);
      strace.complete(r, obs::span::kCollBarrier, runtime, 0.0);
      strace.complete(r, obs::span::kBspAlign, 0.0, runtime, "tasks",
                      assignment.ranks[r].total_tasks());
    }
  }

  for (std::size_t r = 0; r < p; ++r) {
    stat::Breakdown& timeline = result.ranks[r];
    timeline.compute_layer.threads = threads;
    timeline.compute = compute_acc[r];
    timeline.overhead = overhead_acc[r];
    timeline.comm = comm_acc[r] + request_comm;
    timeline.sync = sync_acc[r];
    timeline.peak_memory = base_mem[r] + exchange_mem[r] / rounds;
    timeline.faults.crashes = crashes_seen[r];
    timeline.faults.tasks_reexecuted =
        static_cast<std::uint64_t>(std::llround(reexec_tasks[r]));
    timeline.faults.recovery_seconds = recovery_acc[r];
  }
  std::vector<char> bsp_dead(p, 0);
  for (std::size_t r = 0; r < p; ++r) bsp_dead[r] = crash_round[r] < rounds ? 1 : 0;
  runtime += cost_self_healing(chaos, machine, /*rpc_fabric=*/false, bsp_dead, result.ranks);
  result.runtime = runtime;
  return result;
}

SimResult simulate_async(const MachineParams& machine, const SimAssignment& assignment,
                         const SimOptions& options) {
  const std::size_t p = assignment.nranks();
  GNB_CHECK(p == machine.total_ranks());
  proto::check_ranks_per_node(options.proto.ranks_per_node, /*bsp_engine=*/false,
                              options.faults.enabled());
  const Traffic traffic = analyze_traffic(machine, assignment);
  const double cps = options.calibration.cells_per_second;
  const double ovh = options.calibration.overhead_per_task * machine.async_overhead_factor;
  // Small, unaggregated messages waste NIC cycles (headers, DMA setup) but
  // not global-link capacity: the efficiency derate applies to the NIC
  // share; the bisection share is the same channel BSP sees. Batched pulls
  // (async_batch > 1) recover bandwidth efficiency toward aggregated-buffer
  // levels.
  const auto batch_div = static_cast<double>(std::max<std::size_t>(1, options.proto.async_batch));
  const double eff = options.small_message_efficiency +
                     (1.0 - options.small_message_efficiency) * (1.0 - 1.0 / batch_div);
  const double nic_share =
      machine.nic_bandwidth / static_cast<double>(machine.cores_per_node) * eff;
  const double bisection_share =
      machine.bisection_bandwidth() / static_cast<double>(machine.total_ranks()) *
      options.small_message_bisection_efficiency;
  const double inter_bw = std::max(1.0, std::min(nic_share, bisection_share));
  const double intra_bw = intranode_bw_per_rank(machine) * eff;
  const auto window = static_cast<double>(std::max<std::size_t>(1, options.proto.async_window));
  // Intra-rank compute layer: kernels scale with the worker count, and a
  // pooled rank overlaps pulls with compute more aggressively (the rank
  // thread stays on the RPC stream while workers align). thread_div is
  // exactly 1.0 when the knob is off — the serial model bit-for-bit.
  const auto threads = std::max<std::size_t>(1, options.proto.compute_threads);
  const auto thread_div = static_cast<double>(threads);
  const bool pooled = threads > 1 && !options.skip_compute;
  const double overlap_eff =
      pooled ? std::min(0.9, options.overlap_efficiency * thread_div)
             : options.overlap_efficiency;

  SimResult result;
  result.ranks.resize(p);
  result.rounds = 1;
  SimTracer strace(machine, p, options.trace);

  // Message and byte accounting from the shared exchange plan: identical
  // dedup-pull sets and per-owner batching to the real async engine.
  std::vector<proto::RankExchangeInput> inputs(p);
  for (std::size_t r = 0; r < p; ++r) {
    const RankWork& work = assignment.ranks[r];
    inputs[r].pull_bytes = work.pull_bytes();
    inputs[r].serve_bytes = assignment.serve_bytes[r];
    inputs[r].raw_pull_bytes = work.raw_pull_bytes();
    std::unordered_map<std::uint32_t, std::uint64_t> per_owner;
    for (const Pull& pull : work.pulls) ++per_owner[pull.owner];
    inputs[r].pulls_per_owner.reserve(per_owner.size());
    for (const auto& [owner, count] : per_owner) inputs[r].pulls_per_owner.push_back(count);
  }
  const proto::ExchangePlan plan = proto::plan_exchange(inputs, options.proto);
  result.messages = plan.async_messages;
  result.exchange_bytes = plan.exchange_bytes;
  result.wire_raw_bytes = plan.raw_bytes;
  result.inter_node_bytes = traffic.cross_total;

  // Straggler-perturbed timelines: the async engine has two collectives —
  // the split-phase entry barrier (entry 0) and the exit/service barrier
  // (entry 1) — each a straggle opportunity per rank, booked as that rank's
  // own sync and as everyone else's wait through the phase maximum.
  std::optional<rt::FaultInjector> chaos;
  if (options.faults.enabled()) chaos.emplace(options.faults);
  std::vector<double> stall(p, 0);
  std::vector<double> total(p);
  for (std::size_t r = 0; r < p; ++r) {
    const RankWork& work = assignment.ranks[r];
    const auto n_pulls = static_cast<double>(work.pulls.size());
    const auto n_serves = static_cast<double>(assignment.serve_count[r]);

    // --- CPU busy time ---
    double compute =
        options.skip_compute ? 0.0
                             : static_cast<double>(work.total_cells()) / cps / thread_div;
    // Pointer-based container traversal degrades with structure size
    // (cache misses grow with the task index); flat arrays do not. This is
    // why the paper's Fig-13 overhead *share* shrinks as strong scaling
    // thins the per-rank structures.
    const double structure_factor =
        1.0 + 0.18 * std::log2(1.0 + static_cast<double>(work.total_tasks()) / 256.0);
    const double out_messages = n_pulls / batch_div;  // pulls aggregated per owner
    const double in_messages = n_serves / batch_div;
    double overhead = static_cast<double>(work.total_tasks()) * ovh * structure_factor;
    overhead += out_messages * machine.per_message_cpu;  // issue + callback dispatch
    // RDMA-style one-sided gets bypass the callee's CPU entirely.
    overhead += options.async_rdma ? 0.0 : in_messages * machine.rpc_service_cpu;
    overhead += static_cast<double>(assignment.serve_bytes[r] + work.pull_bytes()) /
                options.pack_bandwidth;                  // (de)serialization
    const double m = noise_multiplier(options, r);
    compute *= m;
    overhead *= m;
    const double busy = compute + overhead;

    // --- network stream time (overlappable) ---
    const double wire_inter =
        std::max(static_cast<double>(traffic.recv_inter[r]),
                 static_cast<double>(traffic.send_inter[r])) /
        inter_bw;
    const double wire_intra =
        std::max(static_cast<double>(traffic.recv_intra[r]),
                 static_cast<double>(traffic.send_intra[r])) /
        intra_bw;
    const double recv_total = static_cast<double>(work.pull_bytes());
    const double frac_inter =
        recv_total > 0 ? static_cast<double>(traffic.recv_inter[r]) / recv_total : 0.0;
    const double rtt = 2.0 * (frac_inter * machine.internode_latency +
                              (1.0 - frac_inter) * machine.intranode_latency);
    // Each message is one request + one reply on the wire: per-message NIC
    // occupancy is paid per message (batching amortizes it). Very high
    // per-rank message counts additionally pressure the runtime's request
    // queues (superlinear; see MachineParams::rpc_queue_pressure). An
    // RDMA-style lookup needs two round trips (index get, then data get).
    const double messages = out_messages + in_messages;
    const double rtt_per_pull = options.async_rdma ? 2.0 * rtt : rtt;
    const double net = wire_inter + wire_intra + out_messages * rtt_per_pull / window +
                       messages * machine.per_message_wire +
                       messages * messages * machine.rpc_queue_pressure;

    // Visible latency: whatever the (imperfect) overlap with computation
    // cannot hide, plus the first-reply ramp-up.
    const double ramp = n_pulls > 0 ? rtt : 0.0;
    const double comm = std::max(0.0, net - overlap_eff * busy) + ramp;

    stat::Breakdown& timeline = result.ranks[r];
    timeline.compute = compute;
    timeline.overhead = overhead;
    timeline.comm = comm;
    timeline.compute_layer.threads = threads;

    // --- memory: partition + pointer-based task index + a bounded window
    // of in-flight replies ("no more than 1 remote read in-memory at any
    // given time to make progress"; the window allows up to W). ---
    const double avg_pull_bytes = work.pulls.empty()
                                      ? 0.0
                                      : static_cast<double>(work.pull_bytes()) / n_pulls;
    timeline.peak_memory =
        work.partition_bytes + work.total_tasks() * kAsyncTaskBytes +
        work.pulls.size() * kAsyncPullBytes +
        static_cast<std::uint64_t>(window * avg_pull_bytes);

    stall[r] = straggle_pause(chaos, r, 0) + straggle_pause(chaos, r, 1);
    total[r] = busy + comm + stall[r];
  }

  // --- crash + recovery costing ---
  // A rank that dies mid-phase completes only a fraction of its pulls: the
  // async engine advances one fault step per completed pull batch plus the
  // handful of phase-entry/exit collectives, so f ≈ at_step / (batches + 4).
  // Survivors fail fast on their in-flight pulls to the dead rank, adopt
  // its read shard, re-pull the reads behind its unfinished tasks, and
  // split the re-execution at the exit-protocol agreement rounds.
  std::vector<char> dead(p, 0);
  if (chaos) {
    std::vector<std::size_t> deaths, survivors;
    std::vector<double> done_frac(p, 1.0);
    for (std::size_t r = 0; r < p; ++r) {
      if (const auto step = chaos->crash_step(static_cast<std::uint32_t>(r))) {
        const double events =
            static_cast<double>(assignment.ranks[r].pulls.size()) / batch_div + 4.0;
        done_frac[r] = std::min(1.0, static_cast<double>(*step) / events);
        dead[r] = 1;
        deaths.push_back(r);
      } else {
        survivors.push_back(r);
      }
    }
    if (!deaths.empty() && !survivors.empty()) {
      const auto s = static_cast<double>(survivors.size());
      double lost_compute = 0, lost_overhead = 0, lost_tasks = 0, refetch_bytes = 0;
      for (std::size_t d : deaths) {
        stat::Breakdown& t = result.ranks[d];
        const double f = done_frac[d];
        lost_compute += (1.0 - f) * t.compute;
        lost_overhead += (1.0 - f) * t.overhead;
        lost_tasks += (1.0 - f) * static_cast<double>(assignment.ranks[d].total_tasks());
        refetch_bytes += (1.0 - f) * static_cast<double>(assignment.ranks[d].pull_bytes());
        t.compute *= f;
        t.overhead *= f;
        t.comm *= f;
        total[d] = t.compute + t.overhead + t.comm;  // dies; waits for nobody
        stall[d] = 0;
      }
      const double agree = 2.0 * machine.a2a_setup_per_peer * static_cast<double>(p);
      for (std::size_t r : survivors) {
        stat::Breakdown& t = result.ranks[r];
        const double extra_busy = (lost_compute + lost_overhead) / s;
        const double extra_comm = agree + refetch_bytes / s / inter_bw;
        t.compute += lost_compute / s;
        t.overhead += lost_overhead / s;
        t.comm += extra_comm;
        t.faults.crashes = deaths.size();
        t.faults.tasks_reexecuted =
            static_cast<std::uint64_t>(std::llround(lost_tasks / s));
        t.faults.recovery_seconds = extra_busy + extra_comm;
        total[r] += extra_busy + extra_comm;
      }
    }
  }

  double phase = 0;
  for (double t : total) phase = std::max(phase, t);
  for (std::size_t r = 0; r < p; ++r) {
    if (dead[r]) {  // a dead rank never reaches the exit barrier
      result.ranks[r].sync = 0;
      continue;
    }
    result.ranks[r].sync = phase - total[r] + stall[r];
  }
  phase += cost_self_healing(chaos, machine, /*rpc_fabric=*/true, dead, result.ranks);
  result.runtime = phase;

  // Virtual timeline per rank, mirroring the real async engine's span
  // taxonomy: entry split-barrier, local-local tasks, the windowed pull
  // stream, then the exit/service barrier absorbing end-time imbalance.
  if (strace.on()) {
    for (std::size_t r = 0; r < p; ++r) {
      const RankWork& work = assignment.ranks[r];
      const stat::Breakdown& t = result.ranks[r];
      const double entry_stall = dead[r] ? 0.0 : straggle_pause(chaos, r, 0);
      const double busy_end = entry_stall + t.compute + t.overhead + t.comm;
      strace.complete(r, obs::span::kAsyncIndex, 0.0, 0.0);
      strace.complete(r, obs::span::kCollSplitBarrier, 0.0, entry_stall);
      if (stall[r] > 0)
        strace.instant(r, obs::span::kFaultStraggle, 0.0, "us",
                       static_cast<std::uint64_t>(std::llround(stall[r] * 1e6)));
      const double structure_factor =
          1.0 + 0.18 * std::log2(1.0 + static_cast<double>(work.total_tasks()) / 256.0);
      double local_busy = static_cast<double>(work.local_tasks) * ovh * structure_factor;
      if (!options.skip_compute) local_busy += static_cast<double>(work.local_cells) / cps;
      local_busy = std::clamp(local_busy, 0.0, std::max(0.0, busy_end - entry_stall));
      strace.complete(r, obs::span::kAsyncLocalTasks, entry_stall, local_busy);
      const double pulls_start = entry_stall + local_busy;
      strace.complete(r, obs::span::kAsyncPulls, pulls_start,
                      std::max(0.0, busy_end - pulls_start), "batches",
                      static_cast<std::uint64_t>(std::llround(
                          static_cast<double>(work.pulls.size()) / batch_div)));
      // Codec spans under the same gate as the real engine: the serving
      // side compresses replies, the pulling side decompresses them.
      if (options.proto.wire_compression != proto::WireCompression::kOff) {
        strace.complete(r, obs::span::kWireCompress, pulls_start, 0.0);
        strace.complete(r, obs::span::kWireDecompress, pulls_start, 0.0);
      }
      if (!work.pulls.empty())
        strace.async_pair(r, obs::span::kRpcPull, r, pulls_start, busy_end);
      if (dead[r]) {
        strace.instant(r, obs::span::kFaultCrash, busy_end, "step",
                       chaos->crash_step(static_cast<std::uint32_t>(r)).value_or(0));
        strace.complete(r, obs::span::kAsyncAlign, 0.0, busy_end, "tasks",
                        work.total_tasks());
        continue;
      }
      if (t.faults.recovery_seconds > 0) {
        strace.complete(r, obs::span::kRecovery, busy_end - t.faults.recovery_seconds,
                        t.faults.recovery_seconds);
        strace.instant(r, obs::span::kRecoveryReexec, busy_end - t.faults.recovery_seconds,
                       "tasks", t.faults.tasks_reexecuted);
      }
      // Kernel/pool drain before the exit barrier: compute.batch iff the
      // kernels run at all, compute.pool iff workers are active (the real
      // engine's gate).
      if (!options.skip_compute) strace.complete(r, obs::span::kComputeBatch, busy_end, 0.0);
      if (pooled) strace.complete(r, obs::span::kComputePool, busy_end, 0.0);
      const double exit_sync = std::max(0.0, phase - busy_end);
      strace.complete(r, obs::span::kCollServiceBarrier, busy_end, exit_sync);
      strace.complete(r, obs::span::kCollSplitBarrier, busy_end, exit_sync);
      strace.complete(r, obs::span::kAsyncAlign, 0.0, phase, "tasks", work.total_tasks());
    }
  }
  return result;
}

SimResult simulate_assembly(const MachineParams& machine, const SimAssignment& assignment,
                            const SimOptions& options) {
  const std::size_t p = assignment.nranks();
  GNB_CHECK_MSG(p == machine.total_ranks(),
                "assignment has " << p << " ranks, machine " << machine.total_ranks());
  const double inter_bw = internode_bw_per_rank(machine);
  const double setup = machine.a2a_setup_per_peer * static_cast<double>(p);
  const double op = options.graph_edge_op;
  const auto edge_bytes = static_cast<double>(options.graph_edge_bytes);
  const std::uint64_t rounds = std::max<std::uint64_t>(1, options.graph_reduce_rounds);
  // Everything downstream is sized from the per-rank edge share: the
  // accepted-alignment records a rank contributes, filtered to surviving
  // dovetail edges (directed edge + mirror).
  std::vector<double> edges(p, 0);
  double total_edges = 0;
  for (std::size_t r = 0; r < p; ++r) {
    edges[r] = static_cast<double>(assignment.ranks[r].total_tasks()) *
               options.graph_edges_per_task;
    total_edges += edges[r];
  }
  // Shard routing is uniform over owners, so the cross-rank fraction of
  // every edge/mark/pull exchange is (P-1)/P.
  const double remote = p > 1 ? static_cast<double>(p - 1) / static_cast<double>(p) : 0.0;

  SimResult result;
  result.ranks.resize(p);
  result.rounds = rounds;
  SimTracer strace(machine, p, options.trace);

  std::optional<rt::FaultInjector> chaos;
  if (options.faults.enabled()) chaos.emplace(options.faults);

  // Collective entries per attempt, matching pipeline/assembly.cpp: the
  // attempt barrier, the containment + edge exchanges and edge allreduce
  // (build), four collectives per reduction round (pull request, pull
  // reply, marks, fresh allreduce), and the degree pull + gather +
  // broadcast of the contig phase.
  const std::uint64_t build_entries = 4;
  const std::uint64_t reduce_entries = 4 * rounds;
  const std::uint64_t contig_entries = 3;
  const std::uint64_t attempt_entries = build_entries + reduce_entries + contig_entries;

  // One attempt over `alive`, starting at t0. Phase busy time is the
  // noise-perturbed edge-op count; phase comm is the collective setup plus
  // the slowest rank's wire share (alltoallv semantics, as in the BSP
  // model); the phase barrier converts imbalance into sync. Accumulators
  // are only written for the attempt that completes (emit == true).
  std::vector<double> compute_acc(p, 0), comm_acc(p, 0), sync_acc(p, 0);
  const auto run_attempt = [&](const std::vector<std::size_t>& alive, double t0, bool emit) {
    const auto s = static_cast<double>(alive.size());
    const double adopt = static_cast<double>(p) / s;  // dead shards adopted
    double t = t0;
    std::uint64_t entry = 0;
    const auto phase = [&](const char* span, std::uint64_t collectives, double busy_ops,
                           double wire_bytes) {
      double comm = static_cast<double>(collectives) * setup + wire_bytes / inter_bw +
                    wire_bytes / options.pack_bandwidth;
      double busy_max = 0;
      std::vector<double> busy(p, 0);
      for (std::size_t r : alive) {
        busy[r] = busy_ops * adopt * (edges[r] / std::max(1.0, total_edges)) *
                  static_cast<double>(alive.size()) * noise_multiplier(options, r);
        busy[r] += straggle_pause(chaos, r, entry);
        busy_max = std::max(busy_max, busy[r]);
      }
      if (emit) {
        for (std::size_t r : alive) {
          compute_acc[r] += busy[r];
          comm_acc[r] += comm;
          sync_acc[r] += busy_max - busy[r];
          strace.complete(r, span, t, comm + busy_max);
          strace.complete(r, obs::span::kCollAlltoallv, t, comm);
          strace.complete(r, obs::span::kCollBarrier, t + comm + busy[r],
                          busy_max - busy[r]);
        }
      }
      t += comm + busy_max;
      entry += collectives;
    };
    // Build: classify + route every edge; ship the remote share.
    phase(obs::span::kGraphBuild, build_entries, total_edges * 2.0 * op / s,
          total_edges * edge_bytes * remote / s);
    // Reduce: each round snapshots adjacency, pulls remote witness lists,
    // computes marks (a handful of edge ops per live edge), ships marks.
    phase(obs::span::kGraphReduce, reduce_entries,
          static_cast<double>(rounds) * total_edges * 4.0 * op / s,
          static_cast<double>(rounds) * total_edges * 2.0 * edge_bytes * remote / s);
    // Contig: resolve steps locally, gather edges + steps to the root,
    // which replays the walk over the full edge set, then broadcast.
    phase(obs::span::kGraphContig, contig_entries,
          total_edges * op / s + total_edges * op,  // local share + root replay
          2.0 * total_edges * edge_bytes);          // gather in, result out
    return t;
  };

  std::vector<std::size_t> survivors, deaths;
  std::uint64_t first_crash = attempt_entries;
  for (std::size_t r = 0; r < p; ++r) {
    std::optional<std::uint64_t> step;
    if (chaos) step = chaos->crash_step(static_cast<std::uint32_t>(r));
    if (step && *step < attempt_entries) {
      deaths.push_back(r);
      first_crash = std::min(first_crash, *step);
    } else {
      survivors.push_back(r);
    }
  }

  double t0 = 0;
  std::uint64_t restarts = 0;
  if (!deaths.empty() && !survivors.empty()) {
    // The abandoned attempt: every rank runs until the first death's
    // collective, then survivors restart from the manifests in unison.
    std::vector<std::size_t> all(p);
    for (std::size_t r = 0; r < p; ++r) all[r] = r;
    const double clean_span = run_attempt(all, 0.0, false);
    const double frac = static_cast<double>(first_crash + 1) /
                        static_cast<double>(attempt_entries);
    t0 = clean_span * std::min(1.0, frac) + 3.0 * setup;  // wasted work + agreement
    restarts = 1;
    for (std::size_t r : survivors) {
      comm_acc[r] += 3.0 * setup;
      sync_acc[r] += clean_span * std::min(1.0, frac);
      strace.complete(r, obs::span::kRecovery, 0.0, t0, "restarts", restarts);
    }
    for (std::size_t d : deaths)
      strace.instant(d, obs::span::kFaultCrash, t0, "step", first_crash);
  }
  const std::vector<std::size_t>& alive = survivors.empty() ? deaths : survivors;
  const double end = run_attempt(alive, t0, true);

  result.runtime = end;
  // Logical message count: one pairwise message per peer per collective
  // entry of the completed attempt (alltoallv semantics).
  result.messages = attempt_entries * alive.size() * (alive.size() - 1);
  result.exchange_bytes = static_cast<std::uint64_t>(
      total_edges * edge_bytes * remote * (1.0 + 2.0 * static_cast<double>(rounds)) +
      2.0 * total_edges * edge_bytes);
  for (std::size_t r = 0; r < p; ++r) {
    stat::Breakdown& timeline = result.ranks[r];
    timeline.compute = compute_acc[r];
    timeline.comm = comm_acc[r];
    timeline.sync = sync_acc[r];
    timeline.peak_memory = static_cast<std::uint64_t>(
        (total_edges / static_cast<double>(std::max<std::size_t>(1, alive.size()))) *
        edge_bytes * 2.0);
    timeline.faults.crashes = deaths.size();
    timeline.faults.recovery_seconds = restarts > 0 ? t0 : 0.0;
  }
  std::vector<char> asm_dead(p, 0);
  for (const std::size_t d : deaths) asm_dead[d] = 1;
  result.runtime +=
      cost_self_healing(chaos, machine, /*rpc_fabric=*/true, asm_dead, result.ranks);
  return result;
}

}  // namespace gnb::sim
