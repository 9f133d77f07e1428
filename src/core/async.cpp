#include "core/async.hpp"

#include <algorithm>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/read_ship.hpp"
#include "core/recovery.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "proto/pull_index.hpp"
#include "util/error.hpp"
#include "util/wire.hpp"

namespace gnb::core {

namespace {
using kmer::AlignTask;
using rt::Bytes;

constexpr std::uint32_t kReadLookupRpc = 1;

/// How often the completion loop scans for timed-out pulls, in progress()
/// polls. Scanning is O(outstanding batches); amortize it.
constexpr std::uint64_t kTimeoutScanMask = 63;

/// Caller-side record of one logical pull (one proto::PullBatch). The
/// logical id — the batch index — travels in the request and reply payloads
/// so that retries and injected duplicates are recognizable: rt-level
/// request ids change on every (re)issue, logical ids never do.
struct PullState {
  std::uint64_t issued_tick = 0;  // the owner's progress() tick at the last (re)issue
  std::uint32_t attempts = 1;
  bool done = false;
  bool exhausted = false;  // retry budget spent (counted once)
};

}  // namespace

EngineResult async_align(rt::Rank& rank, const seq::ReadStore& store,
                         const std::vector<seq::ReadId>& bounds,
                         const std::vector<kmer::AlignTask>& my_tasks,
                         const EngineConfig& config) {
  EngineResult result;
  const std::uint32_t me = rank.id();
  GNB_SPAN(obs::span::kAsyncAlign, "tasks", my_tasks.size());

  // Recovery bookkeeping only exists under a fault plan (zero cost on the
  // fault-free path). Constructing the context publishes this rank's phase
  // manifest before the first crash point can fire.
  const bool chaos = rank.faults() != nullptr;

  proto::check_ranks_per_node(config.proto.ranks_per_node, /*bsp_engine=*/false, chaos);
  ReadShip ship(rank, result, config.proto.wire_compression);

  // A restarted rank cannot replay the phase (its pulls, split barrier, and
  // callbacks died with the old incarnation). Its comeback: park at the
  // admission gate until the survivors reach the exit agreement loop, then
  // run that loop with them — the recovery fixpoint replays this rank's
  // durable completion log and re-executes its unfinished manifest tasks
  // through a runner over the rebuilt list, keeping the merged output
  // byte-identical.
  if (chaos && rank.rejoining()) {
    if (!rank.admitting_barrier()) return result;  // phase wound down without us
    const std::vector<AlignTask> mine =
        RecoveryContext::parse_manifest(rank.durable().manifest(me));
    RecoveryContext rrc(rank, store, bounds, mine, config);
    TaskRunner runner(rank, store, bounds, mine, config, result, &rrc);
    for (;;) {
      rrc.flush();
      rank.service_barrier();
      rrc.recover(runner, result, nullptr, nullptr);
      (void)rank.admitting_barrier();
      if (!rrc.needs_recovery()) break;
    }
    runner.flush();
    flush_engine_metrics(rank, result);
    return result;
  }

  std::optional<RecoveryContext> rc;
  if (chaos) rc.emplace(rank, store, bounds, my_tasks, config);

  // --- index tasks by the remote read they need (paper §3.2, src/proto) ---
  proto::PullIndex index;
  std::vector<proto::PullBatch> batches;
  // At-most-once bookkeeping (the engine-side hardening fault injection
  // forces): the caller tracks which logical pulls completed so duplicate
  // replies — from injected duplicates or from retries whose original
  // eventually arrived — are dropped, and the callee keeps a reply cache so
  // duplicate requests are served identically without recomputation.
  std::unordered_map<std::uint64_t, Bytes> reply_cache;  // (src, logical) -> reply
  {
    GNB_SPAN(obs::span::kAsyncIndex);
    rank.timers().overhead.start();
    for (std::size_t t = 0; t < my_tasks.size(); ++t) {
      const AlignTask& task = my_tasks[t];
      const auto owner_a = static_cast<std::uint32_t>(seq::partition_owner(bounds, task.a));
      const auto owner_b = static_cast<std::uint32_t>(seq::partition_owner(bounds, task.b));
      index.add_task(t, task.a, task.b, owner_a, owner_b, me);
    }
    // Deterministic issue order (ascending remote read id), then the shared
    // owner-batching decision: one RPC per pull at async_batch = 1, larger
    // aggregated lookups otherwise.
    index.finalize();
    batches = proto::batch_pulls(index.pulls(), config.proto.async_batch);

    // Serve lookups into my partition: [logical id][id list] -> [logical id]
    // [concatenated reads]. Under chaos, ownership is the (lazily refreshed)
    // failure-aware map: reads adopted from dead ranks are servable here, and
    // a requested read this rank does NOT own under its view — which is at
    // least as new as any requester's — is silently omitted from the reply;
    // the requester detects the gap and re-pulls from the owner it sees next.
    rank.rpc().register_handler(
        kReadLookupRpc, [&](std::uint32_t src, std::span<const std::uint8_t> in) {
          std::size_t offset = 0;
          const auto logical = wire::get<std::uint64_t>(in, offset);
          const std::uint64_t cache_key = (static_cast<std::uint64_t>(src) << 40) ^ logical;
          if (chaos) {
            const auto it = reply_cache.find(cache_key);
            if (it != reply_cache.end()) {
              // Callee-side request dedup: a duplicate (injected or retried)
              // is served from the cache — same bytes, no recomputation.
              ++rank.fault_counters().duplicates;
              return it->second;
            }
          }
          // Reply layout: [u64 logical][checksummed frame of the reads].
          // The checksum covers the compressed payload, so a corrupt frame
          // is caught before the decoder touches it.
          std::vector<seq::ReadId> ids;
          while (offset < in.size()) ids.push_back(wire::get<std::uint32_t>(in, offset));
          Bytes reply;
          wire::put<std::uint64_t>(reply, logical);
          ship.serve(reply, ids, [&](seq::ReadId id) {
            return chaos ? rc->owned_read(id) : &local_read(store, bounds, me, id);
          });
          if (chaos) reply_cache.emplace(cache_key, reply);
          return reply;
        });
    rank.timers().overhead.stop();
  }
  proto::RequestWindow window(config.proto.async_window);
  std::vector<PullState> states(batches.size());
  std::size_t completed = 0;

  // The shared intra-rank compute layer: decoded-read cache + worker pool.
  // Under chaos it drains synchronously per submission, so completion-log
  // order and crash placement are the serial engine's.
  TaskRunner runner(rank, store, bounds, my_tasks, config, result, rc ? &*rc : nullptr);

  // --- split-phase barrier: compute local-local tasks while waiting ---
  rank.split_barrier_arrive();
  {
    GNB_SPAN(obs::span::kAsyncLocalTasks, "tasks", index.local_tasks().size());
    runner.run_local_tasks(index.local_tasks());
  }
  // Exit only once every rank's reads are accessible via RPC lookup.
  rank.split_barrier_wait();

  // --- asynchronous pulls with compute-in-callback ---
  // Exactly-once guard on the remote reads themselves: a read can reach
  // this rank twice under failures (a reply racing the death notice of a
  // re-pulled batch), and its tasks must execute once.
  std::unordered_set<seq::ReadId> processed;
  const auto process_read = [&](const seq::Read& remote) {
    if (chaos && !processed.insert(remote.id).second) {
      ++rank.fault_counters().duplicates;
      return;
    }
    const std::vector<std::size_t>& tasks = index.tasks_for(remote.id);
    GNB_CHECK_MSG(!tasks.empty(), "RPC returned unrequested read " << remote.id);
    // The runner's cache pins the decoded codes, so queued slots may
    // outlive the reply-buffer temporary this callback hands in.
    runner.run_tasks(remote, tasks);
  };

  // Failure reactions are *deferred* out of RPC callbacks into the
  // completion loop (callbacks run inside progress(), where re-issuing
  // would recurse): logical pulls whose peer died, and reads a partial
  // reply omitted, queue here until the next loop pass re-routes them.
  std::vector<std::size_t> peer_dead_pulls;
  std::vector<seq::ReadId> orphaned_reads;
  std::uint64_t tick = 0;  // completion-loop polls (paces the timeout scan)

  const auto on_reply = [&](Bytes reply) {
    std::size_t offset = 0;
    const auto logical = wire::get<std::uint64_t>(reply, offset);
    GNB_CHECK_MSG(logical < states.size(), "reply for unknown pull " << logical);
    PullState& state = states[logical];
    if (state.done) {
      // Duplicate completion: a second copy of the reply, or a retry racing
      // its delayed original. At-most-once: drop it.
      ++rank.fault_counters().duplicates;
      return;
    }
    state.done = true;
    ++completed;
    window.on_reply();
    GNB_ASYNC_END(obs::span::kRpcPull, logical);
    std::vector<seq::ReadId> served;
    const auto consume = [&](std::uint32_t, const seq::Read& remote) {
      if (chaos) served.push_back(remote.id);
      process_read(remote);
    };
    const std::uint64_t payload_bytes =
        ship.receive(reply, offset, batches[logical].owner, "async pull", logical, consume);
    rank.metrics().observe(obs::metric::kReplyBytesHist, payload_bytes);
    if (chaos && served.size() != batches[logical].reads.size()) {
      // Partial service: the callee's failure-aware view no longer owned
      // some of the requested reads. Replies preserve request order, so
      // the omissions are the ids the two-pointer walk skips.
      std::size_t si = 0;
      for (const seq::ReadId id : batches[logical].reads) {
        if (si < served.size() && served[si] == id)
          ++si;
        else
          orphaned_reads.push_back(id);
      }
    }
  };

  const auto issue = [&](std::size_t b) {
    states[b].issued_tick = rank.rpc().peer_ticks(batches[b].owner);
    Bytes payload;
    wire::put<std::uint64_t>(payload, b);
    for (const std::uint32_t id : batches[b].reads) wire::put<std::uint32_t>(payload, id);
    GNB_ASYNC_BEGIN(obs::span::kRpcPull, b);
    // Logical pulls in flight; arrival order makes the sampled values
    // timing-dependent, so this counter is for timeline reading, not for
    // the golden determinism checks (those use BSP/sim).
    GNB_COUNTER(obs::span::kCtrRpcInflight, window.issued() - completed);
    rank.metrics().gauge_max(obs::metric::kRpcInflightMax, window.issued() - completed);
    rank.timers().comm.start();
    rank.rpc().call(batches[b].owner, kReadLookupRpc, std::move(payload),
                    [&, b](rt::RpcStatus status, Bytes reply) {
                      if (status != rt::RpcStatus::kOk) {
                        peer_dead_pulls.push_back(b);
                        return;
                      }
                      on_reply(std::move(reply));
                    });
    rank.timers().comm.stop();
  };

  // Re-route failed work: a pull whose peer died releases all its reads;
  // each orphaned read is re-pulled from the owner this rank currently
  // sees for it — or served locally when the dead rank's shard fell to
  // this rank. Purely unilateral (no collectives): the asynchronous phase
  // has no synchronization points to agree at until its exit barrier.
  const auto react_to_failures = [&] {
    while (!peer_dead_pulls.empty() || !orphaned_reads.empty()) {
      std::vector<std::size_t> failed;
      failed.swap(peer_dead_pulls);
      for (const std::size_t b : failed) {
        PullState& state = states[b];
        if (state.done) continue;  // the reply raced the death notice
        state.done = true;
        ++completed;
        window.on_reply();
        GNB_ASYNC_END(obs::span::kRpcPull, b);
        for (const seq::ReadId id : batches[b].reads) orphaned_reads.push_back(id);
      }
      std::vector<seq::ReadId> ids;
      ids.swap(orphaned_reads);
      std::unordered_map<std::uint32_t, std::vector<seq::ReadId>> regrouped;
      for (const seq::ReadId id : ids) {
        const std::uint32_t owner = rc->owner_of(id);
        if (owner == me)
          process_read(store.get(id));
        else
          regrouped[owner].push_back(id);
      }
      for (auto& [owner, reads] : regrouped) {
        batches.push_back(proto::PullBatch{owner, std::move(reads)});
        states.emplace_back();
        // Throttling polls progress, which may fail more pulls or deliver
        // more partial replies — the outer while picks those up.
        rank.rpc().throttle(window.limit());
        window.on_issue();
        issue(batches.size() - 1);
        ++result.messages;
      }
    }
  };

  const std::size_t initial_batches = batches.size();
  {
    GNB_SPAN(obs::span::kAsyncPulls, "batches", initial_batches);
    for (std::size_t b = 0; b < initial_batches; ++b) {
      // Bound outstanding requests; polling here both throttles and serves.
      rank.rpc().throttle(window.limit());
      window.on_issue();
      issue(b);
      ++result.messages;
    }

  // --- completion loop: poll progress, re-issue timed-out pulls ---
  // A pull's clock is its owner's progress() polls — not the wall clock and
  // not this rank's polls: only a poll on the owner can serve the request,
  // so an owner busy aligning (local tasks, or reply callbacks run inline)
  // never times out pulls it has had no chance to serve. The clock is
  // deterministic under the runtime's control and proportional to how much
  // serving the owner has actually done. The per-pull timeout doubles with
  // every attempt (bounded exponential backoff); once the budget is spent
  // the event is counted and — with no fault injector to explain the
  // silence — surfaced as a typed RpcRetriesExhaustedError instead of
  // waiting forever. Under chaos the caller keeps polling: injected delays
  // make late delivery the expected outcome, and peer death arrives
  // separately as kPeerDead.
  const std::uint64_t timeout = config.proto.rpc_timeout;
  std::size_t crash_checked = 0;
  while (completed < batches.size()) {
    if (rank.rpc().progress() == 0) std::this_thread::yield();
    // Merge finished pool batches between polls: the pull stream keeps
    // flowing while workers chew on earlier replies.
    runner.poll();
    if (chaos) {
      react_to_failures();
      // One crash point per fully processed pull batch, taken outside the
      // callback stack: completed work is durable before this rank can die.
      while (crash_checked < completed) {
        ++crash_checked;
        rc->flush();
        rank.crash_point();
      }
    }
    ++tick;
    if (timeout == 0 || (tick & kTimeoutScanMask) != 0) continue;
    for (std::size_t b = 0; b < batches.size(); ++b) {
      PullState& state = states[b];
      if (state.done) continue;
      const std::uint64_t backoff =
          timeout << std::min<std::uint32_t>(state.attempts - 1, 16);
      const std::uint64_t owner_tick = rank.rpc().peer_ticks(batches[b].owner);
      if (owner_tick - state.issued_tick < backoff) continue;
      ++rank.fault_counters().timeouts;
      GNB_INSTANT(obs::span::kRpcTimeout, "pull", b);
      state.issued_tick = owner_tick;
      if (state.attempts > config.proto.max_retries) {
        if (!state.exhausted) {
          state.exhausted = true;
          ++rank.fault_counters().retry_exhausted;
          if (!chaos) {
            std::ostringstream msg;
            msg << "rank " << me << ": pull " << b << " to rank " << batches[b].owner
                << " still unanswered after " << config.proto.max_retries
                << " retries and no fault injection to explain it";
            throw RpcRetriesExhaustedError(msg.str());
          }
        }
        continue;  // chaos: delivery is reliable, only untimely — wait it out
      }
      ++state.attempts;
      ++rank.fault_counters().retries;
      GNB_INSTANT(obs::span::kRpcRetry, "pull", b, "attempt", state.attempts);
      rank.rpc().throttle(window.limit());
      issue(b);  // same logical id: dedup keeps the retry at-most-once
    }
  }
  // Flush rt-level stragglers (late duplicate replies of retried pulls) so
  // no callback capturing this frame survives the phase.
  rank.rpc().drain();
  if (chaos) {
    react_to_failures();  // a drained straggler may have been a partial reply
    while (completed < batches.size()) {
      if (rank.rpc().progress() == 0) std::this_thread::yield();
      react_to_failures();
    }
    rank.rpc().drain();
  } else {
    GNB_CHECK(window.issued() == batches.size());
  }
  }  // end of the async.pulls span: the phase is serviced-but-complete

  // Drain the pool before the exit barrier, staying RPC-serviceable: peers
  // may still be pulling reads from this rank while its workers finish.
  // compute.batch is emitted iff the kernels ran at all, compute.pool iff
  // workers are active — the simulator mirrors both gates (span parity).
  if (!config.skip_compute) {
    GNB_SPAN(obs::span::kComputeBatch);
    if (runner.pooled()) {
      GNB_SPAN(obs::span::kComputePool);
      runner.submit_pending();
      while (!runner.drained()) {
        if (rank.rpc().progress() == 0) std::this_thread::yield();
        runner.poll();
      }
    }
    runner.drain();
  } else {
    runner.drain();
  }

  // --- single exit barrier: stay serviceable until everyone is done ---
  // Under a fault plan the exit is an agreement loop. service_barrier keeps
  // this rank serving pulls until every alive rank finished its own loop —
  // only then is it safe to enter collectives (nobody needs RPC service
  // anymore). recover() runs unconditionally: the asynchronous phase has no
  // stamping collectives of its own, so its first gate both detects and
  // agrees on any deaths; when nothing died it is a single cheap allreduce.
  // The trailing barrier stamps the snapshot the loop condition reads, so
  // continuing or breaking is unanimous — and doubles as the admission
  // point where a restarted rank parked on its comeback is re-admitted.
  // The runner flushes after the loop, so its re-executions are counted.
  if (!chaos) {
    rank.service_barrier();
  } else {
    for (;;) {
      rc->flush();
      rank.service_barrier();
      rc->recover(runner, result, nullptr, nullptr);
      (void)rank.admitting_barrier();
      if (!rc->needs_recovery()) break;
    }
  }
  runner.flush();
  flush_engine_metrics(rank, result);
  return result;
}

}  // namespace gnb::core
