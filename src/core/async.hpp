#pragma once
// Asynchronous many-to-many alignment engine (paper §3.2).
//
// Tasks are indexed under the remote read they need (proto::PullIndex);
// the engine issues an asynchronous RPC pull per distinct remote read
// (never more than once per read) — or one per proto::PullBatch when
// config.proto.async_batch > 1 — with a completion callback that runs
// every alignment involving each arriving read. Local-local tasks are
// computed inside the first phase of a split-phase barrier — during time
// that would otherwise be spent waiting — and a single exit barrier keeps
// every rank's partition serviceable until all tasks complete. The "pull"
// direction bounds memory: at most `config.proto.async_window` replies are
// ever in flight toward this rank (proto::RequestWindow).
//
// Robustness (exercised by rt::FaultPlan injection, tests/test_fault): each
// pull carries a stable logical id; pulls left unanswered for
// config.proto.rpc_timeout progress-polls of their owner are re-issued with
// bounded exponential backoff (config.proto.max_retries), duplicate replies
// are dropped by the caller, and duplicate requests are served from a
// callee-side reply cache — so pull semantics stay at-most-once under
// delayed, duplicated, or reordered delivery, and the alignment set is
// byte-identical to a fault-free run.

#include "core/engine.hpp"
#include "rt/world.hpp"

namespace gnb::core {

/// SPMD body: run the asynchronous engine on this rank's tasks.
/// `my_tasks` must satisfy the owner invariant w.r.t. `bounds`.
EngineResult async_align(rt::Rank& rank, const seq::ReadStore& store,
                         const std::vector<seq::ReadId>& bounds,
                         const std::vector<kmer::AlignTask>& my_tasks,
                         const EngineConfig& config);

}  // namespace gnb::core
