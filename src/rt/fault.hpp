#pragma once
// Seeded, deterministic fault injection for the shared-memory runtime.
//
// The real GASNet-EX/UPC++ stack the paper builds on (§3.2) guarantees
// reliable delivery but not timeliness or ordering across pairs; runtime
// knobs like the outgoing-request limit (§4.3) exist precisely because
// delivery can be delayed and ranks can straggle. rt::RpcEndpoint
// hard-codes reliable FIFO delivery, so nothing would exercise what the
// engines do when messages are delayed, duplicated, or reordered — unless
// we perturb the runtime on purpose.
//
// A FaultPlan is a small set of perturbation intensities; a FaultInjector
// turns the plan into *per-delivery decisions* by pure hashing of the
// (seed, kind, endpoints, sequence-number) tuple — no mutable state, so the
// injector is trivially thread-safe and every schedule is replayable from a
// single uint64 seed. The injected failure modes (none loses data):
//
//   * delay:     hold a request/reply for N progress() calls of the
//                receiving endpoint before it becomes visible;
//   * duplicate: deliver a request or reply twice (at-most-once semantics
//                become the *engines'* responsibility, as on a real network
//                where retries can duplicate);
//   * reorder:   reverse a batch of queued replies before the receiving
//                progress() runs them (per-pair FIFO is all GASNet
//                promises; cross-batch order is fair game);
//   * straggle:  pause a rank for a few hundred microseconds at
//                barrier/alltoallv entry (OS noise, page faults, the §4.2
//                load-imbalance amplifiers).
//
// Injection is a zero-cost-when-disabled hook: World holds a null injector
// pointer by default and every check is a single branch on that pointer.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace gnb::rt {

/// One scheduled rank death: `rank` dies at its `at_step`-th fault step. A
/// fault step is a deterministic per-rank event counter the runtime
/// advances at every collective entry (barrier, alltoallv, alltoall,
/// allgather-family, split-barrier arrival) and, in the async engine, at
/// every completed pull batch. The crash fires *before* the event executes,
/// the way a process loss interrupts a collective rather than straddling it.
struct CrashEvent {
  std::uint32_t rank = 0;
  std::uint64_t at_step = 0;
};

/// One scheduled bidirectional link cut: deliveries between ranks `a` and
/// `b` (either direction) are held while the *receiver's* progress tick is
/// inside [at_tick, at_tick + duration). The window is expressed in receiver
/// progress() ticks — the same clock message delays use — so a partition
/// composes with delay/dup/reorder and is replayable from the spec alone.
/// The cut rank is alive the whole time: this is what exercises the failure
/// detector's suspicion (and false-suspicion) path rather than fail-stop.
struct PartitionEvent {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t at_tick = 0;
  std::uint64_t duration = 0;
};

/// One scheduled comeback: after rank `rank` dies (via a crash@ event), its
/// thread parks instead of exiting and is re-admitted to the computation at
/// an agreed epoch boundary — specifically, after `skip_gates` admitting
/// gate openings have passed since it parked. Volatile state is lost; the
/// durable completion log survives and is replayed on rejoin.
struct RestartEvent {
  std::uint32_t rank = 0;
  std::uint64_t skip_gates = 0;
};

/// One scheduled durable-record corruption: the `seq`-th record of kind
/// `kind` written by rank `rank` is bit-flipped (or truncated, hashed from
/// the identity) at write time. The kinds are rt::DurableStore's: 1 =
/// manifest, 2 = log record.
struct CorruptEvent {
  std::uint32_t rank = 0;
  std::uint32_t kind = 0;
  std::uint64_t seq = 0;
};

/// Perturbation intensities for one chaos run. Default-constructed plans
/// are disabled (all probabilities zero).
struct FaultPlan {
  /// Default partition window when the spec omits the duration, sized so a
  /// cut outlives the detector lease (the suspicion path fires) but heals
  /// well before any test timeout.
  static constexpr std::uint64_t kDefaultPartitionTicks = 4096;

  std::uint64_t seed = 0;

  /// Probability that a request/reply delivery is held, and the maximum
  /// hold in receiver progress() calls (the actual hold is hashed from the
  /// message identity, in [1, max_delay_ticks]).
  double delay_prob = 0;
  std::uint32_t max_delay_ticks = 0;

  /// Probability that a delivery is duplicated.
  double dup_prob = 0;

  /// Probability that one progress() batch of replies is reversed.
  double reorder_prob = 0;

  /// Probability that a rank pauses at a barrier/alltoallv entry, and the
  /// maximum pause in microseconds.
  double straggle_prob = 0;
  std::uint32_t max_straggle_us = 0;

  /// Scheduled rank deaths (at most one per rank; the earliest step wins).
  /// Unlike the probabilistic modes these are explicit events, so a crash
  /// schedule is replayable verbatim: `crash@2:5` in a spec kills rank 2 at
  /// its 5th fault step on every run.
  std::vector<CrashEvent> crashes;

  /// Scheduled bidirectional link cuts (partition@A|B:TICK[:DURATION]).
  std::vector<PartitionEvent> partitions;

  /// Scheduled rank comebacks (restart@RANK:SKIP). At most one per rank; a
  /// restart without a matching crash is legal but inert.
  std::vector<RestartEvent> restarts;

  /// Scheduled durable-record corruptions (corrupt@RANK:KIND:SEQ).
  std::vector<CorruptEvent> corrupts;

  [[nodiscard]] bool enabled() const {
    return delay_prob > 0 || dup_prob > 0 || reorder_prob > 0 || straggle_prob > 0 ||
           !crashes.empty() || !partitions.empty() || !restarts.empty() || !corrupts.empty();
  }

  /// The canonical chaos mix: every fault mode active, intensities jittered
  /// deterministically by the seed so a matrix of seeds explores different
  /// schedules. This is what `--faults <seed>` and the chaos suite use.
  [[nodiscard]] static FaultPlan from_seed(std::uint64_t seed);

  /// Parse a fault spec. Either a bare integer seed (-> from_seed) or a
  /// comma-separated list of key=value intensities and crash events:
  ///   seed=42,delay=0.2:8,dup=0.05,reorder=0.1,straggle=0.02:500,crash@1:3
  /// where delay is prob:max_ticks, straggle is prob:max_us, and crash@R:S
  /// kills rank R at its S-th fault step. Unknown keys, duplicate crash
  /// ranks, and malformed values all throw gnb::Error with a clear message.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// Render the plan back to a parseable spec (log lines, replay notes).
  [[nodiscard]] std::string to_spec() const;
};

/// Stateless decision oracle over a FaultPlan. All methods are const and
/// derive decisions by hashing message/event identities with the seed, so
/// concurrent ranks can consult one shared injector without locks.
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  struct Delivery {
    std::uint32_t delay_ticks = 0;  // hold for this many receiver progress() calls
    bool duplicate = false;         // deliver a second copy
  };

  /// Decision for the `seq`-th request `src` sends to `dst`.
  [[nodiscard]] Delivery on_request(std::uint32_t src, std::uint32_t dst,
                                    std::uint64_t seq) const;

  /// Decision for the `seq`-th reply `src` sends back to `dst`.
  [[nodiscard]] Delivery on_reply(std::uint32_t src, std::uint32_t dst,
                                  std::uint64_t seq) const;

  /// Should the `epoch`-th progress() batch of replies on `rank` be
  /// reversed before running its callbacks?
  [[nodiscard]] bool reorder_replies(std::uint32_t rank, std::uint64_t epoch) const;

  /// Microseconds `rank` pauses at its `entry`-th barrier/alltoallv entry
  /// (0 = no pause).
  [[nodiscard]] std::uint32_t straggle_us(std::uint32_t rank, std::uint64_t entry) const;

  /// The fault step at which `rank` is scheduled to die, if any (the
  /// earliest crash event naming the rank).
  [[nodiscard]] std::optional<std::uint64_t> crash_step(std::uint32_t rank) const;

  /// Should `rank` die now, at fault step `step`? True exactly when a crash
  /// event fires at or before `step` (a rank cannot outrun its death by
  /// skipping event kinds).
  [[nodiscard]] bool crashes_at(std::uint32_t rank, std::uint64_t step) const {
    const auto scheduled = crash_step(rank);
    return scheduled && *scheduled <= step;
  }

  /// Remaining hold, in receiver progress() ticks, for a delivery between
  /// `src` and `dst` when the receiver's tick is `now` (0 = no active cut).
  /// The hold runs to the end of the longest covering partition window, so a
  /// message sent mid-window surfaces exactly when the partition heals.
  [[nodiscard]] std::uint64_t partition_hold_ticks(std::uint32_t src, std::uint32_t dst,
                                                   std::uint64_t now) const {
    std::uint64_t hold = 0;
    for (const PartitionEvent& cut : plan_.partitions) {
      const bool covers = (cut.a == src && cut.b == dst) || (cut.a == dst && cut.b == src);
      if (covers && now >= cut.at_tick && now < cut.at_tick + cut.duration)
        hold = std::max(hold, cut.at_tick + cut.duration - now);
    }
    return hold;
  }

  /// Is any partition window covering the (src, dst) link active at `now`?
  [[nodiscard]] bool partitioned(std::uint32_t src, std::uint32_t dst,
                                 std::uint64_t now) const {
    return partition_hold_ticks(src, dst, now) > 0;
  }

  /// The comeback schedule for `rank`, if any: the number of admitting gate
  /// openings to skip between its death and its re-admission.
  [[nodiscard]] std::optional<std::uint64_t> restart_after(std::uint32_t rank) const {
    for (const RestartEvent& event : plan_.restarts)
      if (event.rank == rank) return event.skip_gates;
    return std::nullopt;
  }

  /// Should the `seq`-th durable record of kind `kind` written by `rank` be
  /// corrupted at write time?
  [[nodiscard]] bool corrupts_record(std::uint32_t rank, std::uint32_t kind,
                                     std::uint64_t seq) const {
    for (const CorruptEvent& event : plan_.corrupts)
      if (event.rank == rank && event.kind == kind && event.seq == seq) return true;
    return false;
  }

  /// Deterministic mutation of a record payload chosen to corrupt: either a
  /// hashed bit-flip or a mid-byte truncation (a torn write), picked by the
  /// record identity so every replay of the spec tears the same way.
  void corrupt_payload(std::uint32_t rank, std::uint32_t kind, std::uint64_t seq,
                       std::vector<std::uint8_t>& payload) const;

 private:
  FaultPlan plan_;
};

}  // namespace gnb::rt
