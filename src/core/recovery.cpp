#include "core/recovery.hpp"

#include <algorithm>
#include <sstream>

#include "core/read_ship.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "proto/config.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"
#include "util/wire.hpp"

namespace gnb::core {

namespace {
using kmer::AlignTask;
using rt::Bytes;
}  // namespace

RecoveryContext::RecoveryContext(rt::Rank& rank, const seq::ReadStore& store,
                                 const std::vector<seq::ReadId>& bounds,
                                 const std::vector<kmer::AlignTask>& my_tasks,
                                 const EngineConfig& config)
    : rank_(rank), store_(store), bounds_(bounds), my_tasks_(my_tasks), config_(config) {
  map_ = proto::OwnerMap(bounds_, std::vector<char>(rank_.nranks(), 1));
  // Publish the phase manifest before the first crash point can fire:
  // survivors reconstruct this rank's task list from it.
  Bytes manifest;
  wire::put<std::uint64_t>(manifest, my_tasks_.size());
  for (const AlignTask& task : my_tasks_) kmer::put_task(manifest, task);
  rank_.fault_counters().checkpoint_bytes +=
      rank_.durable().write_manifest(rank_.id(), std::move(manifest));
}

void RecoveryContext::log_completion(const AlignSlot& slot, const EngineResult& result,
                                     std::size_t accepted_before) {
  LogEntry entry;
  entry.kind = slot.origin ? kEntryReexecution : kEntryCompletion;
  entry.origin = slot.origin.value_or(0);
  entry.index = static_cast<std::uint32_t>(slot.task_index);
  entry.has_record = result.accepted.size() > accepted_before;
  if (entry.has_record) entry.record = result.accepted.back();
  append_entry(entry);
  if (slot.origin) ++rank_.fault_counters().tasks_reexecuted;
}

void RecoveryContext::append_entry(const LogEntry& entry) {
  wire::put<std::uint8_t>(log_buffer_, entry.kind);
  switch (entry.kind) {
    case kEntryCompletion:
      wire::put<std::uint32_t>(log_buffer_, entry.index);
      wire::put<std::uint8_t>(log_buffer_, entry.has_record ? 1 : 0);
      if (entry.has_record) align::put_record(log_buffer_, entry.record);
      break;
    case kEntryReexecution:
      wire::put<std::uint32_t>(log_buffer_, entry.origin);
      wire::put<std::uint32_t>(log_buffer_, entry.index);
      wire::put<std::uint8_t>(log_buffer_, entry.has_record ? 1 : 0);
      if (entry.has_record) align::put_record(log_buffer_, entry.record);
      break;
    case kEntryClaim:
      wire::put<std::uint32_t>(log_buffer_, entry.origin);
      break;
    default:
      GNB_CHECK_MSG(false, "unknown log entry kind " << int(entry.kind));
  }
}

void RecoveryContext::flush() {
  if (log_buffer_.empty()) return;
  rank_.fault_counters().checkpoint_bytes += rank_.durable().append_log(rank_.id(), log_buffer_);
  log_buffer_.clear();
}

std::vector<RecoveryContext::LogEntry> RecoveryContext::parse_log(const Bytes& bytes) {
  std::vector<LogEntry> entries;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    LogEntry entry;
    entry.kind = wire::get<std::uint8_t>(bytes, offset);
    switch (entry.kind) {
      case kEntryCompletion:
        entry.index = wire::get<std::uint32_t>(bytes, offset);
        entry.has_record = wire::get<std::uint8_t>(bytes, offset) != 0;
        if (entry.has_record) entry.record = align::get_record(bytes, offset);
        break;
      case kEntryReexecution:
        entry.origin = wire::get<std::uint32_t>(bytes, offset);
        entry.index = wire::get<std::uint32_t>(bytes, offset);
        entry.has_record = wire::get<std::uint8_t>(bytes, offset) != 0;
        if (entry.has_record) entry.record = align::get_record(bytes, offset);
        break;
      case kEntryClaim:
        entry.origin = wire::get<std::uint32_t>(bytes, offset);
        break;
      default:
        GNB_CHECK_MSG(false, "corrupt durable log: entry kind " << int(entry.kind));
    }
    entries.push_back(entry);
  }
  return entries;
}

std::vector<kmer::AlignTask> RecoveryContext::parse_manifest(const rt::Bytes& manifest) {
  std::vector<AlignTask> tasks;
  if (manifest.empty()) return tasks;
  std::size_t offset = 0;
  const auto count = wire::get<std::uint64_t>(manifest, offset);
  tasks.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) tasks.push_back(kmer::get_task(manifest, offset));
  return tasks;
}

const std::vector<kmer::AlignTask>& RecoveryContext::dead_tasks(std::uint32_t r) {
  const auto it = dead_tasks_.find(r);
  if (it != dead_tasks_.end()) return it->second;
  return dead_tasks_.emplace(r, parse_manifest(rank_.durable().manifest(r))).first->second;
}

void RecoveryContext::refresh_owner_map_if_stale() {
  const std::uint64_t now = rank_.current_epoch();
  if (now == map_epoch_) return;
  std::vector<char> alive(rank_.nranks());
  for (std::uint32_t r = 0; r < rank_.nranks(); ++r)
    alive[r] = rank_.is_alive_now(r) ? 1 : 0;
  map_ = proto::OwnerMap(bounds_, alive);
  map_epoch_ = now;
}

const seq::Read* RecoveryContext::owned_read(seq::ReadId id) {
  refresh_owner_map_if_stale();
  return map_.owns(rank_.id(), id) ? &store_.get(id) : nullptr;
}

std::uint32_t RecoveryContext::owner_of(seq::ReadId id) {
  refresh_owner_map_if_stale();
  return map_.owner(id);
}

void RecoveryContext::recover(
    TaskRunner& runner, EngineResult& result,
    const std::function<std::vector<seq::ReadId>(const std::vector<char>&)>& report_missing,
    const std::function<void(const seq::Read&)>& consume) {
  const std::uint32_t me = rank_.id();
  const std::size_t p = rank_.nranks();
  std::uint64_t attempts = 0;

  for (;;) {
    flush();
    // Local suspicion; the reduction makes the decision unanimous, and the
    // gate it passes stamps the snapshot the iteration plans from. The
    // stamped epoch can only be >= the value read here, so a death this
    // rank saw is never lost by the agreement.
    const bool pending_local = rank_.current_epoch() != handled_epoch_ || !missing_.empty() ||
                               !my_lost_.empty();
    if (rank_.allreduce_max(pending_local ? 1.0 : 0.0) < 0.5) break;
    // Bounded fixpoint: every alive rank counts the same iterations (the
    // reduction above is collective), so when the budget is spent all of
    // them throw together — a typed failure instead of a livelock when the
    // fault schedule keeps the protocol from converging.
    ++attempts;
    if (config_.proto.max_recovery_attempts != 0 &&
        attempts > config_.proto.max_recovery_attempts) {
      std::ostringstream msg;
      msg << "recovery fixpoint did not converge after " << config_.proto.max_recovery_attempts
          << " iterations (max_recovery_attempts)";
      throw UnrecoverableError(msg.str());
    }
    GNB_SPAN(obs::span::kRecovery);
    WallTimer recovery_timer;

    const std::uint64_t s_epoch = rank_.collective_epoch();
    const std::vector<char> s_alive = rank_.collective_alive();
    const std::vector<std::uint64_t> s_rejoin = rank_.collective_rejoin_epochs();
    const proto::OwnerMap map(bounds_, s_alive);

    if (report_missing) {
      const std::vector<seq::ReadId> extra = report_missing(s_alive);
      missing_.insert(missing_.end(), extra.begin(), extra.end());
      std::sort(missing_.begin(), missing_.end());
      missing_.erase(std::unique(missing_.begin(), missing_.end()), missing_.end());
    }

    for (std::uint32_t r = 0; r < p; ++r) {
      if (s_alive[r] || known_dead_.contains(r)) continue;
      ++rank_.fault_counters().crashes;
      known_dead_.insert(r);
    }

    // --- watermark: read the durable evidence. Every alive rank reads the
    // same store state here (writes only happen after the agreement barrier
    // below), so the plan computed from it is unanimous. ---
    std::vector<proto::DeadRankState> dead_states;
    std::unordered_map<std::uint32_t, std::size_t> dead_pos;
    for (std::uint32_t r = 0; r < p; ++r) {
      if (s_alive[r]) continue;
      proto::DeadRankState state;
      state.rank = r;
      state.manifest_tasks = dead_tasks(r).size();
      dead_pos.emplace(r, dead_states.size());
      dead_states.push_back(std::move(state));
    }
    // Ever-rejoined alive ranks are a third evidence class: their unfinished
    // manifest tasks are re-dealt to them every iteration (idempotent — the
    // evidence scan below removes anything already completed and flushed).
    std::vector<proto::RejoinState> rejoin_states;
    std::unordered_map<std::uint32_t, std::size_t> rejoin_pos;
    for (std::uint32_t r = 0; r < p; ++r) {
      if (!s_alive[r] || s_rejoin[r] == 0) continue;
      proto::RejoinState state;
      state.rank = r;
      state.manifest_tasks = dead_tasks(r).size();
      rejoin_pos.emplace(r, rejoin_states.size());
      rejoin_states.push_back(std::move(state));
    }
    std::vector<std::vector<LogEntry>> logs(p);
    for (std::uint32_t q = 0; q < p; ++q) {
      logs[q] = parse_log(rank_.durable().log(q));
      for (const LogEntry& entry : logs[q]) {
        if (entry.kind == kEntryCompletion && !s_alive[q])
          dead_states[dead_pos.at(q)].completed.push_back(entry.index);
        if (entry.kind == kEntryCompletion && rejoin_pos.contains(q))
          rejoin_states[rejoin_pos.at(q)].completed.push_back(entry.index);
        if (entry.kind == kEntryReexecution && dead_pos.contains(entry.origin))
          dead_states[dead_pos.at(entry.origin)].completed.push_back(entry.index);
        if (entry.kind == kEntryReexecution && rejoin_pos.contains(entry.origin))
          rejoin_states[rejoin_pos.at(entry.origin)].completed.push_back(entry.index);
        if ((entry.kind == kEntryCompletion || entry.kind == kEntryReexecution) &&
            entry.has_record && !s_alive[q])
          dead_states[dead_pos.at(q)].has_records = true;
        // Claims by ranks that later died are void: their merged copies
        // died with them.
        if (entry.kind == kEntryClaim && s_alive[q] && dead_pos.contains(entry.origin)) {
          auto& claimant = dead_states[dead_pos.at(entry.origin)].claimant;
          if (!claimant) claimant = q;
        }
      }
    }
    proto::RecoveryPlan plan = proto::plan_recovery(dead_states, rejoin_states, s_alive);
    my_lost_ = std::move(plan.assignments[me]);

    // --- agreement barrier: all evidence reads precede all writes ---
    rank_.barrier();

    // --- adopt dead logs assigned to me: emit their records exactly once
    // and claim the log durably so no later plan re-adopts it while this
    // rank lives ---
    for (const proto::Adoption& adoption : plan.adoptions) {
      if (adoption.adopter != me || merged_.contains(adoption.dead)) continue;
      for (const LogEntry& entry : logs[adoption.dead])
        if ((entry.kind == kEntryCompletion || entry.kind == kEntryReexecution) &&
            entry.has_record)
          result.accepted.push_back(entry.record);
      merged_.insert(adoption.dead);
      LogEntry claim;
      claim.kind = kEntryClaim;
      claim.origin = adoption.dead;
      append_entry(claim);
    }

    // --- rejoin replay: a restarted rank re-emits its own durable records
    // exactly once. If an *alive* survivor's durable claim shows the log was
    // adopted while this rank was presumed dead, the records already live in
    // that survivor's result and the replay is skipped — re-checked every
    // iteration, so a claimant dying later (taking its merged copies with
    // it, but not this rank's log) still triggers the replay. Claims the old
    // incarnation wrote are honored by re-merging those dead logs here: they
    // suppress re-adoption by everyone else, so their records have no other
    // way back. ---
    if (rank_.rejoining() && !replayed_self_) {
      bool claimed_elsewhere = false;
      for (std::uint32_t q = 0; q < p && !claimed_elsewhere; ++q) {
        if (q == me || !s_alive[q]) continue;
        for (const LogEntry& entry : logs[q])
          if (entry.kind == kEntryClaim && entry.origin == me) {
            claimed_elsewhere = true;
            break;
          }
      }
      if (!claimed_elsewhere) {
        std::uint64_t replayed = 0;
        for (const LogEntry& entry : logs[me]) {
          if ((entry.kind == kEntryCompletion || entry.kind == kEntryReexecution) &&
              entry.has_record) {
            result.accepted.push_back(entry.record);
            ++replayed;
          }
          if (entry.kind == kEntryClaim && !merged_.contains(entry.origin)) {
            for (const LogEntry& adopted : logs[entry.origin])
              if ((adopted.kind == kEntryCompletion || adopted.kind == kEntryReexecution) &&
                  adopted.has_record) {
                result.accepted.push_back(adopted.record);
                ++replayed;
              }
            merged_.insert(entry.origin);
          }
        }
        replayed_self_ = true;
        GNB_INSTANT(obs::span::kRejoinReplay, "records", replayed);
      }
    }

    // --- fetch: reads my lost tasks and the interrupted engine still need,
    // requested from their owners under the agreed map and exchanged in
    // budget-limited rounds (the same memory limit as the BSP exchange) ---
    {
      std::vector<seq::ReadId> still_missing;
      for (const seq::ReadId id : missing_) {
        if (map.owns(me, id)) {
          // The dead owner's shard fell to me: serve myself from the store.
          GNB_CHECK_MSG(consume != nullptr, "engine-missing read without a consumer");
          consume(store_.get(id));
        } else {
          still_missing.push_back(id);
        }
      }
      missing_ = std::move(still_missing);
    }
    std::vector<seq::ReadId> want = missing_;
    for (const proto::TaskClaim& claim : my_lost_) {
      const AlignTask& task = dead_tasks(claim.origin)[claim.index];
      for (const seq::ReadId id : {task.a, task.b})
        if (!map.owns(me, id) && !fetched_.contains(id)) want.push_back(id);
    }
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());

    {
      std::vector<std::vector<seq::ReadId>> wanted(p);
      for (const seq::ReadId id : want) wanted[map.owner(id)].push_back(id);
      ReadShip ship(rank_, result, config_.proto.wire_compression);
      BulkFetch fetch(ship, proto::effective_round_budget(config_.proto, 0, 0),
                      "recovery round");
      // A read this rank does not own under the agreed map is a stale
      // request: dropped here, retried by the requester next iteration.
      const auto serve = [&](seq::ReadId id) {
        return map.owns(me, id) ? &store_.get(id) : nullptr;
      };
      const auto keep = [&](std::uint32_t, seq::Read&& read) {
        const seq::ReadId id = read.id;
        fetched_.emplace(id, std::move(read));
      };
      fetch.request(std::move(wanted), serve);
      fetch.plan();
      while (!fetch.done()) fetch.next_round(nullptr, keep);
    }

    // --- hand fetched reads back to the interrupted engine ---
    {
      std::vector<seq::ReadId> still_missing;
      for (const seq::ReadId id : missing_) {
        const auto it = fetched_.find(id);
        if (it != fetched_.end()) {
          GNB_CHECK_MSG(consume != nullptr, "engine-missing read without a consumer");
          consume(it->second);
        } else {
          still_missing.push_back(id);  // its owner died mid-fetch: retry
        }
      }
      missing_ = std::move(still_missing);
    }

    // --- re-execute only the lost tasks assigned to me, through the
    // engine's compute layer: batched in claim order, each logged at merge,
    // all merged before the flush ---
    const auto read_ptr = [&](seq::ReadId id) -> const seq::Read* {
      if (map.owns(me, id)) return &store_.get(id);
      const auto it = fetched_.find(id);
      return it != fetched_.end() ? &it->second : nullptr;
    };
    std::uint64_t reexecuted = 0;
    std::vector<proto::TaskClaim> remaining;
    for (const proto::TaskClaim& claim : my_lost_) {
      const AlignTask& task = dead_tasks(claim.origin)[claim.index];
      const seq::Read* read_a = read_ptr(task.a);
      const seq::Read* read_b = read_ptr(task.b);
      if (read_a == nullptr || read_b == nullptr) {
        remaining.push_back(claim);  // unfetched: replanned next iteration
        continue;
      }
      runner.reexecute(task, claim.origin, claim.index, *read_a, *read_b);
      ++reexecuted;
    }
    runner.drain();
    my_lost_ = std::move(remaining);
    if (reexecuted > 0) GNB_INSTANT(obs::span::kRecoveryReexec, "tasks", reexecuted);
    flush();
    handled_epoch_ = s_epoch;
    map_ = map;
    map_epoch_ = s_epoch;
    rank_.fault_counters().recovery_seconds += recovery_timer.seconds();
  }
}

}  // namespace gnb::core
