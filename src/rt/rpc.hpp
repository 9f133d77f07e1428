#pragma once
// UPC++-style remote procedure calls over shared memory.
//
// Mirrors the programming model the paper's asynchronous code relies on
// (§3.2): a rank issues an asynchronous RPC to look up data owned by a
// remote rank and attaches a callback; *application-level polling*
// (progress()) is required both to serve incoming requests and to run
// completion callbacks — exactly the UPC++/GASNet-EX contract.
//
// Delivery is reliable and FIFO per (source, target) pair by default. When
// a rt::FaultInjector is installed (chaos testing), deliveries may be
// delayed by N receiver progress() calls, duplicated, or batch-reordered;
// the endpoint then tolerates duplicate replies (dropped and counted as
// orphans) instead of treating them as protocol violations, and the
// *engines* are responsible for at-most-once application semantics (see
// core::async_align's retry/dedup protocol).
//
// Peer death is a first-class outcome, not a hang: when rt::World kills a
// rank it marks the victim's endpoint dead and posts a death notice to
// every surviving endpoint. The next progress() on a survivor fails all
// in-flight requests to the dead peer with RpcStatus::kPeerDead — callers
// learn about the loss in one poll instead of timing out through the full
// backoff ladder — and new call()s to a dead peer fail the same way on the
// caller's next progress(). Replies owed to a dead peer are dropped.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "rt/fault.hpp"

namespace gnb::rt {

/// Completion status delivered to a request's callback.
enum class RpcStatus : std::uint8_t {
  kOk = 0,        // reply payload is valid
  kPeerDead = 1,  // target died before replying; payload is empty
};

class RpcEndpoint {
 public:
  using Bytes = std::vector<std::uint8_t>;
  /// Executed on the *callee* during its progress(); returns the reply.
  using Handler = std::function<Bytes(std::uint32_t src, std::span<const std::uint8_t>)>;
  /// Executed on the *caller* during its progress() when the request
  /// completes — with the reply on kOk, with an empty payload on kPeerDead.
  using StatusCallback = std::function<void(RpcStatus, Bytes)>;
  /// Legacy success-only callback: peer death surfaces as a thrown
  /// RpcPeerDeadError out of progress() instead.
  using Callback = std::function<void(Bytes)>;

  RpcEndpoint(std::uint32_t self, std::vector<std::unique_ptr<RpcEndpoint>>* peers)
      : self_(self), peers_(peers) {}

  /// Register the handler invoked for requests with this id.
  void register_handler(std::uint32_t handler_id, Handler handler);

  /// Issue an asynchronous request; `callback` runs during a later
  /// progress() on this rank. Throws RpcError if `target` is out of range.
  void call(std::uint32_t target, std::uint32_t handler_id, Bytes payload,
            StatusCallback callback);

  /// Success-only convenience overload: wraps `callback` so that peer death
  /// throws RpcPeerDeadError from the progress() that observes it.
  void call(std::uint32_t target, std::uint32_t handler_id, Bytes payload, Callback callback);

  /// Requests issued whose callbacks have not yet run.
  [[nodiscard]] std::size_t outstanding() const { return pending_.size(); }

  /// Serve queued inbound requests and run queued reply callbacks; fail
  /// in-flight requests to peers whose death notices arrived. Returns the
  /// number of events processed.
  std::size_t progress();

  /// Block (polling progress) until fewer than `limit` requests are
  /// outstanding — the "limits on outgoing requests" runtime knob (§4.3).
  void throttle(std::size_t limit);

  /// Drain: poll until outstanding() == 0.
  void drain() { throttle(1); }

  /// Install (or clear, with nullptr) the fault injector consulted on every
  /// delivery. World owns the injector; endpoints only observe it.
  void set_fault_injector(const FaultInjector* injector) { injector_ = injector; }

  /// Reset per-phase state at the start of a World::run: clears inbound and
  /// held queues (a chaos run can leave duplicate deliveries held past the
  /// exit barrier) and the per-phase fault counters. Outstanding requests
  /// must already be drained — engines end every phase with drain() — except
  /// on an endpoint whose rank died mid-phase, whose pending map is dropped.
  void begin_phase();

  // --- failure detector (heartbeat/lease over progress ticks) ---
  /// This endpoint's progress() tick count. The tick doubles as the
  /// heartbeat: every peer samples it during its own progress(), and a peer
  /// whose tick stops advancing for longer than the lease is *suspected* —
  /// quarantined observationally (counted, traced) until either a death
  /// notice confirms the loss or the tick moves again and the suspicion is
  /// cleared as false (the partitioned-but-alive case). Readable from any
  /// thread.
  [[nodiscard]] std::uint64_t progress_ticks() const {
    return progress_epoch_.load(std::memory_order_relaxed);
  }
  /// progress_ticks() of peer `rank`: the clock partition holds, the
  /// detector and the async engine's pull timeouts are measured on.
  [[nodiscard]] std::uint64_t peer_ticks(std::uint32_t rank) const {
    return (*peers_)[rank]->progress_ticks();
  }
  /// Suspicion lease in local progress ticks (0 disables the detector; it
  /// also only runs when a fault injector is installed, so healthy runs pay
  /// nothing).
  void set_detector_lease(std::uint64_t ticks) { lease_ticks_ = ticks; }
  /// Peers currently suspected by this endpoint's detector.
  [[nodiscard]] std::size_t suspected_now() const {
    std::size_t n = 0;
    for (const PeerHealth& h : peer_health_)
      if (h.suspected) ++n;
    return n;
  }

  // --- membership (driven by rt::World) ---
  /// Is this endpoint's rank still alive? Readable from any thread.
  [[nodiscard]] bool is_alive() const { return alive_.load(std::memory_order_acquire); }
  /// Mark this endpoint's rank dead (called by World::kill on the victim).
  void mark_dead() { alive_.store(false, std::memory_order_release); }
  /// Post a death notice for `dead_rank`: the next progress() here fails
  /// all in-flight requests targeting it. Callable from any thread.
  void notify_peer_death(std::uint32_t dead_rank);
  /// Restore liveness and clear death bookkeeping for the next World::run.
  void revive();
  /// Drop the volatile RPC state of a dead incarnation ahead of a rejoin:
  /// in-flight requests (their callbacks reference a stack that no longer
  /// exists), queued deliveries, and held messages. Stragglers that still
  /// reply are absorbed as orphans. Owner thread only, while dead.
  void reset_for_rejoin();

  // --- statistics ---
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_sent_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return bytes_sent_; }
  [[nodiscard]] std::uint64_t requests_served() const { return requests_served_; }
  /// Deliveries held by the injector this phase (requests + replies).
  [[nodiscard]] std::uint64_t delayed_deliveries() const { return delayed_deliveries_; }
  /// Duplicate copies the injector created on sends from this endpoint.
  [[nodiscard]] std::uint64_t duplicates_injected() const { return duplicates_injected_; }
  /// Replies dropped because their request was already completed (the
  /// observable footprint of duplicated deliveries at this endpoint).
  [[nodiscard]] std::uint64_t orphan_replies() const { return orphan_replies_; }
  /// In-flight requests failed fast with kPeerDead (ISSUE: counted into
  /// FaultCounters::rpc_failures by World::run).
  [[nodiscard]] std::uint64_t peer_death_failures() const { return peer_death_failures_; }
  /// Suspicion episodes this endpoint's detector opened this phase.
  [[nodiscard]] std::uint64_t suspected() const { return suspected_; }
  /// Suspicion episodes that cleared because the peer was alive all along.
  [[nodiscard]] std::uint64_t false_suspicions() const { return false_suspicions_; }

 private:
  struct Request {
    std::uint32_t src = 0;
    std::uint64_t reqid = 0;
    std::uint32_t handler = 0;
    Bytes payload;
  };
  struct Reply {
    std::uint64_t reqid = 0;
    Bytes payload;
  };
  struct Pending {
    std::uint32_t target = 0;
    StatusCallback callback;
  };

  void enqueue_request(Request request, std::uint32_t delay_ticks);
  void enqueue_reply(Reply reply, std::uint32_t delay_ticks);
  void send_reply(std::uint32_t dst, Reply reply);
  /// Collect the pending requests targeting `dead` for failure delivery.
  void fail_pending_to(std::uint32_t dead, std::vector<Pending>& failed);
  /// Extra hold imposed by an active partition window on the (self, dst)
  /// link, measured on the receiver's tick clock; 0 without an injector.
  [[nodiscard]] std::uint32_t partition_delay(std::uint32_t dst) const;
  /// One heartbeat/lease sweep over all peers (owner thread, inside
  /// progress()).
  void run_detector();

  std::uint32_t self_;
  std::vector<std::unique_ptr<RpcEndpoint>>* peers_;
  const FaultInjector* injector_ = nullptr;
  std::atomic<bool> alive_{true};

  std::unordered_map<std::uint32_t, Handler> handlers_;  // owner thread only
  std::unordered_map<std::uint64_t, Pending> pending_;   // owner thread only
  std::uint64_t next_reqid_ = 1;
  std::vector<std::uint64_t> request_seq_;  // per-target send counters (owner thread)
  std::uint64_t reply_seq_ = 0;             // reply send counter (owner thread)
  /// progress() calls; written by the owner thread, read by peers as the
  /// heartbeat and as the receiver clock for partition windows.
  std::atomic<std::uint64_t> progress_epoch_{0};

  /// Heartbeat/lease detector state, owner thread only.
  struct PeerHealth {
    std::uint64_t last_tick = 0;      // last sampled peer tick value
    std::uint64_t heard_at = 0;       // local tick when last_tick changed
    bool suspected = false;           // inside an open suspicion episode
  };
  std::vector<PeerHealth> peer_health_;
  std::uint64_t lease_ticks_ = 1024;
  /// Requests issued to peers already known dead: failed locally at the
  /// start of the next progress() so callbacks never run inside call().
  std::vector<std::uint64_t> locally_failed_;  // owner thread only
  /// Has this endpoint observed any peer death this phase? Relaxes the
  /// orphan-reply protocol check the way injection does.
  bool deaths_seen_ = false;  // owner thread only

  std::mutex inbox_mutex_;  // guards the inbound, held, and notice queues
  std::vector<Request> inbox_requests_;
  std::vector<Reply> inbox_replies_;
  std::vector<std::uint32_t> death_notices_;
  /// Deliveries held by the injector: released into the inbox after
  /// `delay` more progress() calls on this endpoint.
  struct HeldRequest {
    std::uint32_t delay = 0;
    Request request;
  };
  struct HeldReply {
    std::uint32_t delay = 0;
    Reply reply;
  };
  std::vector<HeldRequest> held_requests_;
  std::vector<HeldReply> held_replies_;

  std::uint64_t messages_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t requests_served_ = 0;
  std::uint64_t delayed_deliveries_ = 0;
  std::uint64_t duplicates_injected_ = 0;
  std::uint64_t orphan_replies_ = 0;
  std::uint64_t peer_death_failures_ = 0;
  std::uint64_t suspected_ = 0;
  std::uint64_t false_suspicions_ = 0;
};

}  // namespace gnb::rt
