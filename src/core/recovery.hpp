#pragma once
// core::RecoveryContext — the crash-recovery protocol both engines execute.
//
// The protocol (DESIGN.md §8) in one paragraph: every rank publishes a
// phase manifest (its task list) to stable storage before the first crash
// point, then logs each completed task — with its accepted record, if any —
// to an append-only durable log, flushing before every collective (BSP) or
// after every pull batch (async), so the log is always a watermark of what
// died with the rank. When a death is observed, survivors run a collective
// fixpoint: agree on the failure snapshot (the runtime stamps identical
// (epoch, alive) pairs at every collective — rt::World), read the durable
// evidence between two gates so every rank plans from identical state,
// compute the pure proto::plan_recovery decision, adopt dead logs (merging
// their records exactly once, guarded by durable claims), fetch the reads
// the re-executions and the interrupted engine still need under the agreed
// proto::OwnerMap (a core::BulkFetch — the BSP exchange's own read-shipping
// code and memory limit), and re-execute only the lost tasks. Alignment is a
// pure function of its task, task keys (a, b) are globally unique, and
// every record is emitted by exactly one alive rank — so any crash schedule
// yields output byte-identical to the fault-free run.
//
// Restart/rejoin (restart@R:S fault events) extends the same fixpoint: a
// re-admitted rank arrives with empty volatile state but its durable
// manifest and log intact. Every iteration treats ever-rejoined alive ranks
// as a third evidence class (proto::RejoinState): their unfinished manifest
// tasks are re-dealt to them (proto::plan_recovery's rebalance path), and
// the rejoiner replays its own log into its result exactly once — unless an
// alive survivor's durable claim shows the records were already adopted
// while it was presumed dead. Claims the old incarnation wrote are honored
// by re-merging those logs during the replay, so the exactly-once ledger
// holds across the comeback.

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/engine.hpp"
#include "proto/recovery.hpp"
#include "rt/world.hpp"

namespace gnb::core {

class RecoveryContext {
 public:
  /// Publishes this rank's phase manifest to stable storage (before any
  /// crash point can fire).
  RecoveryContext(rt::Rank& rank, const seq::ReadStore& store,
                  const std::vector<seq::ReadId>& bounds,
                  const std::vector<kmer::AlignTask>& my_tasks, const EngineConfig& config);

  /// Buffer the log entry of a merged slot: a completion of my_tasks[t], or
  /// a re-execution of a lost task (counted in tasks_reexecuted). If the
  /// merge grew result.accepted past `accepted_before`, the record rides in
  /// the entry (so an adopter can emit it verbatim).
  void log_completion(const AlignSlot& slot, const EngineResult& result,
                      std::size_t accepted_before);

  /// Append buffered entries to stable storage. Engines call this before
  /// every collective / after every pull batch: work is lost with a crash
  /// only if it was never executed, never both executed and adopted.
  void flush();

  /// Read `id` if this rank owns it under its current owner map (base
  /// shard or adopted); nullptr otherwise. Refreshes the map lazily when
  /// the membership epoch moved, so a server's view is always at least as
  /// new as any requester that observed the death before asking.
  [[nodiscard]] const seq::Read* owned_read(seq::ReadId id);

  /// Current owner of `id` under this rank's (lazily refreshed) view.
  [[nodiscard]] std::uint32_t owner_of(seq::ReadId id);

  /// The membership epoch whose consequences have been fully recovered.
  [[nodiscard]] std::uint64_t handled_epoch() const { return handled_epoch_; }

  /// True when this rank's agreed snapshot has moved past handled_epoch():
  /// the engine must run recover() (all alive ranks will agree).
  [[nodiscard]] bool needs_recovery() const {
    return rank_.collective_epoch() != handled_epoch_;
  }

  /// The collective recovery fixpoint. All alive ranks must call this
  /// together. Each iteration asks `report_missing` (given the agreed alive
  /// set — so deaths detected mid-recovery are covered too) which reads the
  /// interrupted engine still needs from dead owners; each such read, once
  /// fetched (or adopted), is handed to `consume` (the engine executes and
  /// logs its pending tasks for it). Lost tasks assigned to this rank are
  /// re-executed through `runner`, the engine's compute layer, in claim
  /// order and drained before the iteration's flush. Iterates until no rank
  /// has an unhandled death, unfetched read, or unexecuted lost task —
  /// tolerating further deaths mid-recovery. Both callbacks may be null.
  void recover(
      TaskRunner& runner, EngineResult& result,
      const std::function<std::vector<seq::ReadId>(const std::vector<char>&)>& report_missing,
      const std::function<void(const seq::Read&)>& consume);

  /// Decode a durable phase manifest (the encoding the constructor writes)
  /// back into its task list. A rejoining rank uses this to rebuild the
  /// my_tasks it lost with its old incarnation from its own surviving
  /// manifest record.
  [[nodiscard]] static std::vector<kmer::AlignTask> parse_manifest(const rt::Bytes& manifest);

  /// One durable log entry: a completion of the writer's own task `index`,
  /// a re-execution of task `index` of dead rank `origin`, or a claim on
  /// `origin`'s log (its records were adopted by the writer).
  static constexpr std::uint8_t kEntryCompletion = 1;
  static constexpr std::uint8_t kEntryReexecution = 2;
  static constexpr std::uint8_t kEntryClaim = 3;
  struct LogEntry {
    std::uint8_t kind = 0;
    std::uint32_t origin = 0;
    std::uint32_t index = 0;
    bool has_record = false;
    align::AlignmentRecord record;
  };

  /// Decode a durable log (the entries flush() appends, as
  /// rt::DurableStore::log returns them) back into its entries.
  [[nodiscard]] static std::vector<LogEntry> parse_log(const rt::Bytes& log);

 private:
  void append_entry(const LogEntry& entry);
  void refresh_owner_map_if_stale();

  /// Parse rank `r`'s manifest into tasks (cached per dead rank).
  const std::vector<kmer::AlignTask>& dead_tasks(std::uint32_t r);

  rt::Rank& rank_;
  const seq::ReadStore& store_;
  const std::vector<seq::ReadId>& bounds_;
  const std::vector<kmer::AlignTask>& my_tasks_;
  const EngineConfig& config_;

  proto::OwnerMap map_;               // this rank's current ownership view
  std::uint64_t map_epoch_ = 0;       // epoch map_ was built from
  std::uint64_t handled_epoch_ = 0;   // epoch fully recovered
  rt::Bytes log_buffer_;              // entries not yet flushed
  std::unordered_set<std::uint32_t> merged_;      // dead logs this rank adopted
  std::unordered_set<std::uint32_t> known_dead_;  // deaths already counted
  bool replayed_self_ = false;  // rejoiner already re-emitted its own log
  std::unordered_map<std::uint32_t, std::vector<kmer::AlignTask>> dead_tasks_;
  std::vector<proto::TaskClaim> my_lost_;         // assigned, not yet executed
  std::vector<seq::ReadId> missing_;              // engine reads not yet fetched
  std::unordered_map<seq::ReadId, seq::Read> fetched_;  // recovery-fetched reads
};

}  // namespace gnb::core
