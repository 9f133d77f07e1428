#include "rt/rpc.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <thread>

#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace gnb::rt {

void RpcEndpoint::register_handler(std::uint32_t handler_id, Handler handler) {
  handlers_[handler_id] = std::move(handler);
}

void RpcEndpoint::call(std::uint32_t target, std::uint32_t handler_id, Bytes payload,
                       StatusCallback callback) {
  if (target >= peers_->size()) {
    std::ostringstream what;
    what << "rpc target " << target << " out of range (world size " << peers_->size() << ")";
    throw RpcError(what.str());
  }
  Request request;
  request.src = self_;
  request.reqid = next_reqid_++;
  request.handler = handler_id;
  RpcEndpoint& peer = *(*peers_)[target];
  pending_.emplace(request.reqid, Pending{target, std::move(callback)});
  if (!peer.is_alive()) {
    // Fail fast instead of letting the request time out through the full
    // backoff ladder. The failure is delivered from the next progress() so
    // callbacks never run re-entrantly inside call().
    locally_failed_.push_back(request.reqid);
    return;
  }
  ++messages_sent_;
  bytes_sent_ += payload.size();
  request.payload = std::move(payload);

  FaultInjector::Delivery fate;
  if (injector_) {
    if (request_seq_.size() <= target) request_seq_.resize(peers_->size(), 0);
    fate = injector_->on_request(self_, target, request_seq_[target]++);
    fate.delay_ticks = std::max(fate.delay_ticks, partition_delay(target));
  }
  if (fate.duplicate) {
    ++duplicates_injected_;
    peer.enqueue_request(request, fate.delay_ticks);  // copy, then the original
  }
  peer.enqueue_request(std::move(request), fate.delay_ticks);
}

void RpcEndpoint::call(std::uint32_t target, std::uint32_t handler_id, Bytes payload,
                       Callback callback) {
  call(target, handler_id, std::move(payload),
       StatusCallback([cb = std::move(callback), target](RpcStatus status, Bytes bytes) {
         if (status == RpcStatus::kPeerDead) {
           std::ostringstream what;
           what << "rpc to rank " << target << " failed: peer died before replying";
           throw RpcPeerDeadError(what.str(), target);
         }
         cb(std::move(bytes));
       }));
}

void RpcEndpoint::send_reply(std::uint32_t dst, Reply reply) {
  RpcEndpoint& peer = *(*peers_)[dst];
  // A reply owed to a dead requester has no reader; drop it.
  if (!peer.is_alive()) return;
  FaultInjector::Delivery fate;
  if (injector_) {
    fate = injector_->on_reply(self_, dst, reply_seq_++);
    fate.delay_ticks = std::max(fate.delay_ticks, partition_delay(dst));
  }
  if (fate.duplicate) {
    ++duplicates_injected_;
    peer.enqueue_reply(reply, fate.delay_ticks);
  }
  peer.enqueue_reply(std::move(reply), fate.delay_ticks);
}

void RpcEndpoint::enqueue_request(Request request, std::uint32_t delay_ticks) {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  if (delay_ticks > 0) {
    ++delayed_deliveries_;
    held_requests_.push_back(HeldRequest{delay_ticks, std::move(request)});
  } else {
    inbox_requests_.push_back(std::move(request));
  }
}

void RpcEndpoint::enqueue_reply(Reply reply, std::uint32_t delay_ticks) {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  if (delay_ticks > 0) {
    ++delayed_deliveries_;
    held_replies_.push_back(HeldReply{delay_ticks, std::move(reply)});
  } else {
    inbox_replies_.push_back(std::move(reply));
  }
}

void RpcEndpoint::notify_peer_death(std::uint32_t dead_rank) {
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  death_notices_.push_back(dead_rank);
}

void RpcEndpoint::revive() {
  alive_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  death_notices_.clear();
}

void RpcEndpoint::reset_for_rejoin() {
  pending_.clear();
  locally_failed_.clear();
  peer_health_.clear();
  // Replies that raced the death are expected from here on; absorb them as
  // orphans instead of tripping the protocol check.
  deaths_seen_ = true;
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  inbox_requests_.clear();
  inbox_replies_.clear();
  held_requests_.clear();
  held_replies_.clear();
  death_notices_.clear();
}

void RpcEndpoint::begin_phase() {
  // A healthy endpoint must have drained before the phase ended; one whose
  // rank died mid-phase legitimately abandons its in-flight requests.
  GNB_CHECK_MSG(pending_.empty() || !is_alive(),
                "phase started with undrained outgoing RPCs");
  pending_.clear();
  locally_failed_.clear();
  deaths_seen_ = false;
  std::lock_guard<std::mutex> lock(inbox_mutex_);
  inbox_requests_.clear();
  inbox_replies_.clear();
  held_requests_.clear();
  held_replies_.clear();
  death_notices_.clear();
  delayed_deliveries_ = 0;
  duplicates_injected_ = 0;
  orphan_replies_ = 0;
  peer_death_failures_ = 0;
  suspected_ = 0;
  false_suspicions_ = 0;
  peer_health_.clear();
}

std::uint32_t RpcEndpoint::partition_delay(std::uint32_t dst) const {
  if (injector_ == nullptr || injector_->plan().partitions.empty()) return 0;
  // The hold is measured on the *receiver's* progress clock: the delivery
  // is released only after the receiver ticks past the window's end, the
  // way a healed link flushes its backlog.
  const std::uint64_t now = peer_ticks(dst);
  const std::uint64_t hold = injector_->partition_hold_ticks(self_, dst, now);
  constexpr std::uint64_t cap = 0xFFFFFFFFull;
  return static_cast<std::uint32_t>(std::min(hold, cap));
}

void RpcEndpoint::run_detector() {
  if (injector_ == nullptr || lease_ticks_ == 0) return;
  const std::uint64_t now = progress_ticks();
  if (peer_health_.size() != peers_->size()) peer_health_.assign(peers_->size(), PeerHealth{});
  for (std::uint32_t p = 0; p < peer_health_.size(); ++p) {
    if (p == self_) continue;
    PeerHealth& health = peer_health_[p];
    const RpcEndpoint& peer = *(*peers_)[p];
    // A link inside an active partition window carries no heartbeats: the
    // cut manifests as silence, which is exactly what breeds the false
    // suspicion a later rejoin clears.
    const bool audible = !injector_->partitioned(self_, p, now);
    const std::uint64_t tick = audible ? peer_ticks(p) : health.last_tick;
    if (tick != health.last_tick) {
      health.last_tick = tick;
      health.heard_at = now;
      if (health.suspected) {
        health.suspected = false;
        if (peer.is_alive()) {
          // The peer was alive the whole time — a false suspicion, the
          // quarantined rank rejoins the caller's working set.
          ++false_suspicions_;
          GNB_INSTANT(obs::span::kDetectorClear, "peer", p);
        }
      }
      continue;
    }
    if (!health.suspected && now - health.heard_at > lease_ticks_) {
      health.suspected = true;
      ++suspected_;
      GNB_INSTANT(obs::span::kDetectorSuspect, "peer", p);
      if (!peer.is_alive()) {
        // Suspicion confirmed by the membership layer: fast-fail whatever
        // is still in flight (idempotent with the death-notice path).
        std::vector<Pending> failed;
        fail_pending_to(p, failed);
        peer_death_failures_ += failed.size();
        deaths_seen_ = deaths_seen_ || !failed.empty();
        for (Pending& pending : failed) pending.callback(RpcStatus::kPeerDead, Bytes{});
      }
    } else if (health.suspected && !peer.is_alive()) {
      health.suspected = false;  // episode closed by a confirmed death
    }
  }
}

void RpcEndpoint::fail_pending_to(std::uint32_t dead, std::vector<Pending>& failed) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.target == dead) {
      failed.push_back(std::move(it->second));
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t RpcEndpoint::progress() {
  std::vector<Request> requests;
  std::vector<Reply> replies;
  std::vector<std::uint32_t> notices;
  {
    std::lock_guard<std::mutex> lock(inbox_mutex_);
    // Age held deliveries by one progress call; release the expired ones.
    // Held messages join *behind* anything already queued, preserving the
    // real arrival order the delay created.
    std::erase_if(held_requests_, [&](HeldRequest& held) {
      if (--held.delay > 0) return false;
      inbox_requests_.push_back(std::move(held.request));
      return true;
    });
    std::erase_if(held_replies_, [&](HeldReply& held) {
      if (--held.delay > 0) return false;
      inbox_replies_.push_back(std::move(held.reply));
      return true;
    });
    requests.swap(inbox_requests_);
    replies.swap(inbox_replies_);
    notices.swap(death_notices_);
  }
  const std::uint64_t tick = progress_epoch_.load(std::memory_order_relaxed);
  if (injector_ && replies.size() > 1 && injector_->reorder_replies(self_, tick))
    std::reverse(replies.begin(), replies.end());
  progress_epoch_.store(tick + 1, std::memory_order_relaxed);

  for (auto& request : requests) {
    const auto it = handlers_.find(request.handler);
    GNB_CHECK_MSG(it != handlers_.end(), "no handler registered for id " << request.handler);
    Reply reply;
    reply.reqid = request.reqid;
    reply.payload = it->second(request.src, request.payload);
    ++requests_served_;
    send_reply(request.src, std::move(reply));
  }

  // Real replies first: a reply that raced the death notice still counts.
  for (auto& reply : replies) {
    const auto it = pending_.find(reply.reqid);
    if (it == pending_.end()) {
      // Without faults this is a protocol violation; under injection or
      // after a death it is the expected shadow of a duplicated delivery or
      // of a request already failed with kPeerDead.
      GNB_CHECK_MSG(injector_ != nullptr || deaths_seen_,
                    "reply for unknown request " << reply.reqid);
      ++orphan_replies_;
      continue;
    }
    Pending pending = std::move(it->second);
    pending_.erase(it);
    pending.callback(RpcStatus::kOk, std::move(reply.payload));
  }

  // Then fail what death took: in-flight requests to peers whose notices
  // arrived, and requests issued after the caller already saw the death.
  std::vector<Pending> failed;
  for (const std::uint32_t dead : notices) {
    deaths_seen_ = true;
    fail_pending_to(dead, failed);
  }
  for (const std::uint64_t reqid : locally_failed_) {
    const auto it = pending_.find(reqid);
    if (it == pending_.end()) continue;  // already failed via a death notice
    deaths_seen_ = true;
    failed.push_back(std::move(it->second));
    pending_.erase(it);
  }
  locally_failed_.clear();
  peer_death_failures_ += failed.size();
  if (!failed.empty()) {
    GNB_INSTANT(obs::span::kRpcPeerDeath, "failed", failed.size());
  }
  for (Pending& pending : failed) pending.callback(RpcStatus::kPeerDead, Bytes{});

  run_detector();

  return requests.size() + replies.size() + failed.size();
}

void RpcEndpoint::throttle(std::size_t limit) {
  GNB_CHECK(limit >= 1);
  while (pending_.size() >= limit) {
    if (progress() == 0) std::this_thread::yield();
  }
}

}  // namespace gnb::rt
