#include "core/bsp.hpp"

#include <algorithm>
#include <optional>

#include <unordered_map>

#include "core/read_ship.hpp"
#include "core/recovery.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "proto/config.hpp"
#include "proto/pull_index.hpp"
#include "util/error.hpp"
#include "util/wire.hpp"

namespace gnb::core {

namespace {
using kmer::AlignTask;
using rt::Bytes;
}  // namespace

EngineResult bsp_align(rt::Rank& rank, const seq::ReadStore& store,
                       const std::vector<seq::ReadId>& bounds,
                       const std::vector<kmer::AlignTask>& my_tasks,
                       const EngineConfig& config) {
  EngineResult result;
  const std::size_t p = rank.nranks();
  const std::uint32_t me = rank.id();
  GNB_SPAN(obs::span::kBspAlign, "tasks", my_tasks.size());

  // Recovery bookkeeping only exists under a fault plan (zero cost on the
  // fault-free path). Constructing the context publishes this rank's phase
  // manifest before the first crash point can fire.
  const bool chaos = rank.faults() != nullptr;

  proto::check_ranks_per_node(config.proto.ranks_per_node, /*bsp_engine=*/true, chaos);
  const std::size_t ranks_per_node = config.proto.ranks_per_node;
  const bool hierarchy = ranks_per_node > 1;
  const auto node_of = [ranks_per_node](std::size_t r) { return r / ranks_per_node; };

  // A restarted rank cannot replay the phase's collectives — the survivors
  // are mid-protocol. Its comeback: park at the admission gate until the
  // survivors reach their exit loop, then run the same recovery fixpoint
  // they do, with my_tasks rebuilt from the durable manifest the old
  // incarnation published. The fixpoint replays this rank's completion log
  // and re-executes its unfinished tasks (proto::plan_recovery's rebalance
  // path) through a runner over the rebuilt list, so the merged output
  // stays byte-identical.
  if (chaos && rank.rejoining()) {
    if (!rank.admitting_barrier()) return result;  // phase wound down without us
    const std::vector<AlignTask> mine =
        RecoveryContext::parse_manifest(rank.durable().manifest(me));
    RecoveryContext rrc(rank, store, bounds, mine, config);
    TaskRunner runner(rank, store, bounds, mine, config, result, &rrc);
    for (;;) {
      while (rrc.needs_recovery()) {
        rrc.recover(runner, result, nullptr, nullptr);
        // Mirror the survivors' replan(): this rank serves and pulls
        // nothing, but the collective sequence must match gate for gate.
        (void)rank.alltoall(std::vector<std::uint64_t>(p, 0));
        (void)rank.allreduce_max(0.0);
      }
      rrc.flush();
      (void)rank.admitting_barrier();
      if (!rrc.needs_recovery()) break;
    }
    runner.flush();
    flush_engine_metrics(rank, result);
    return result;
  }

  std::optional<RecoveryContext> rc;
  if (chaos) rc.emplace(rank, store, bounds, my_tasks, config);
  const auto checkpoint = [&] {
    if (rc) rc->flush();
  };

  // --- index tasks: local-local vs needing one remote read (src/proto) ---
  proto::PullIndex index;
  {
    GNB_SPAN(obs::span::kBspIndex);
    for (std::size_t t = 0; t < my_tasks.size(); ++t) {
      const AlignTask& task = my_tasks[t];
      const auto owner_a = static_cast<std::uint32_t>(seq::partition_owner(bounds, task.a));
      const auto owner_b = static_cast<std::uint32_t>(seq::partition_owner(bounds, task.b));
      index.add_task(t, task.a, task.b, owner_a, owner_b, me);
    }
    index.finalize();
  }

  // The shared intra-rank compute layer: decoded-read cache + worker pool.
  // Under chaos it drains synchronously per submission, so completion-log
  // order and crash placement are the serial engine's.
  TaskRunner runner(rank, store, bounds, my_tasks, config, result, rc ? &*rc : nullptr);

  // Queue every pending task of an arriving remote read, logging each
  // completion durably when chaos is on. Used for reads unpacked from
  // exchange rounds and for reads the recovery fetch hands back. The
  // arriving read's codes are pinned by the runner's cache, so queued slots
  // may outlive the deserialized temporary.
  const auto run_tasks_for = [&](const seq::Read& remote) {
    const std::vector<std::size_t>& tasks = index.tasks_for(remote.id);
    GNB_CHECK_MSG(!tasks.empty(), "received unrequested read " << remote.id);
    runner.run_tasks(remote, tasks);
  };

  // --- request exchange: tell each owner which reads to send me ---
  std::vector<std::vector<std::uint32_t>> needed = index.needed_by_owner(p);

  // --- hierarchy pre-pass: dedup remote-node pulls across the node ---
  // Co-located ranks share their remote-node need lists; for every read
  // needed from another node, the lowest co-located requester becomes the
  // node's proxy — only it keeps the pull, and it re-ships the read to the
  // other needers over the intra-node forward collective each round. Each
  // (node, node) pair thus ships a read at most once per round.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> forward_to;
  if (hierarchy) {
    GNB_SPAN(obs::span::kBspRequestExchange);
    Bytes my_list;
    for (std::size_t o = 0; o < p; ++o) {
      if (node_of(o) == node_of(me)) continue;
      for (const std::uint32_t id : needed[o]) wire::put<std::uint32_t>(my_list, id);
    }
    std::vector<Bytes> share(p);
    for (std::size_t peer = 0; peer < p; ++peer)
      if (peer != me && node_of(peer) == node_of(me)) share[peer] = my_list;
    const std::vector<Bytes> shared = rank.alltoallv(std::move(share));
    // Lowest co-located requester of each read I need; peers needing it too.
    std::unordered_map<std::uint32_t, std::uint32_t> proxy;
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> requesters;
    for (std::size_t o = 0; o < p; ++o) {
      if (node_of(o) == node_of(me)) continue;
      for (const std::uint32_t id : needed[o]) proxy.emplace(id, me);
    }
    for (std::size_t src = 0; src < p; ++src) {
      std::size_t offset = 0;
      while (offset < shared[src].size()) {
        const auto id = wire::get<std::uint32_t>(shared[src], offset);
        const auto it = proxy.find(id);
        if (it == proxy.end()) continue;  // a read I don't need; not my proxy job
        it->second = std::min(it->second, static_cast<std::uint32_t>(src));
        requesters[id].push_back(static_cast<std::uint32_t>(src));
      }
    }
    for (std::size_t o = 0; o < p; ++o) {
      if (node_of(o) == node_of(me)) continue;
      std::vector<std::uint32_t> kept;
      for (const std::uint32_t id : needed[o]) {
        if (proxy.at(id) != me) continue;  // a lower peer pulls and forwards it
        kept.push_back(id);
        const auto peers = requesters.find(id);
        if (peers != requesters.end()) forward_to.emplace(id, peers->second);
      }
      needed[o] = std::move(kept);
    }
  }
  // The read-shipping layer: request lists, FIFO serve queues with exact
  // wire sizes, and the shared round formula (proto::rounds_needed) over
  // (pull + serve) bytes — the quantity the simulator budgets.
  ReadShip ship(rank, result, config.proto.wire_compression);
  BulkFetch fetch(ship, proto::effective_round_budget(config.proto, 0, 0), "BSP round",
                  checkpoint);
  const auto serve = [&](seq::ReadId id) { return &local_read(store, bounds, me, id); };
  {
    GNB_SPAN(obs::span::kBspRequestExchange);
    fetch.request(std::move(needed), serve);
  }

  // --- local-local tasks: no communication required ---
  {
    GNB_SPAN(obs::span::kBspLocalTasks, "tasks", index.local_tasks().size());
    runner.run_local_tasks(index.local_tasks());
  }

  fetch.plan();

  // --- recovery hook (a no-op until a death is agreed on) ---
  // Recovery fetches the reads dead owners never delivered, hands them to
  // run_tasks_for, re-executes lost tasks on the same runner, and the
  // remaining supersteps are re-agreed under the same memory budget.
  const auto missing = [&](const std::vector<char>& alive) { return fetch.missing(alive); };
  const auto poll_recovery = [&] {
    while (rc && rc->needs_recovery()) {
      rc->recover(runner, result, missing, run_tasks_for);
      fetch.replan(rank.collective_alive());
    }
  };
  poll_recovery();  // deaths during the request/sizes/round-count setup

  // --- dynamically-sized exchange-compute supersteps ---
  while (!fetch.done()) {
    const std::uint64_t round = fetch.round();
    const std::uint64_t bytes = fetch.step().bytes;
    GNB_SPAN(obs::span::kBspRound, "round", round, "bytes", bytes);
    ++result.rounds;
    result.round_bytes.push_back(bytes);

    // Intra-node forward frames, filled while the round unpacks (hierarchy
    // mode only): a proxied read is re-framed for each co-located rank
    // that also requested it.
    std::vector<Bytes> fwd(hierarchy ? p : 0);

    // "All pairwise alignments associated with each received read are
    // computed together, when the respective read is accessed from the
    // message buffer." Each frame decodes as a unit, then its reads' tasks
    // are queued in order; the runner packs consecutive reads' tasks into
    // shared kernel batches.
    const auto consume = [&](std::uint32_t, const seq::Read& remote) {
      if (hierarchy) {
        const auto peers = forward_to.find(remote.id);
        if (peers != forward_to.end())
          for (const std::uint32_t peer : peers->second) ship.add(fwd[peer], remote);
      }
      run_tasks_for(remote);
    };
    fetch.next_round(obs::span::kBspCompute, consume);
    result.messages += p;  // one aggregated buffer per peer per round

    // --- intra-node forward step: proxied reads reach their co-needers ---
    if (hierarchy) {
      for (Bytes& frame : fwd)
        if (!frame.empty()) ship.seal(frame);
      const auto forwarded = [&](std::uint32_t, const seq::Read& remote) {
        run_tasks_for(remote);
      };
      ship.exchange(std::move(fwd), "BSP forward round", round, obs::span::kBspCompute,
                    forwarded);
      result.messages += p;
    }
    // The round's partial batch goes to the kernel now, so the workers
    // overlap it with the next round's alltoallv; then merge whatever they
    // finished while this round exchanged and unpacked.
    runner.submit_pending();
    runner.poll();
    rank.metrics().observe(obs::metric::kRoundBytesHist, bytes);
    GNB_COUNTER(obs::span::kCtrExchangeBytes, result.exchange_bytes_received);
    GNB_COUNTER(obs::span::kCtrAlignCells, result.cells);
    GNB_COUNTER(obs::span::kCtrCacheBytes, runner.cache().stats().bytes);
    // A death at the exchange above was stamped into this rank's agreed
    // snapshot; recover before packing the next round (so the executed
    // rounds always match the replanned schedule).
    poll_recovery();
  }

  // Drain the pool before the exit synchronization: the last rounds' tail
  // compute runs here. With workers active the drain is a compute.pool
  // wait, which the simulator mirrors (the span-name parity tests compare
  // it).
  runner.drain();

  // Final synchronization: end of the bulk-synchronous phase. Loop until
  // the stamped snapshot agrees nothing new died — a rank dying *at* this
  // barrier has finished its own work, but its accepted records must still
  // be adopted from its durable log. The barrier doubles as the admission
  // point: a restarted rank parked on its comeback is re-admitted here and
  // joins the recovery iteration the stamp forces on everyone. The runner
  // flushes after the loop, so re-executions it ran are counted too.
  for (;;) {
    checkpoint();
    (void)rank.admitting_barrier();
    if (!rc || !rc->needs_recovery()) break;
    poll_recovery();
  }
  runner.flush();
  flush_engine_metrics(rank, result);
  return result;
}

}  // namespace gnb::core
