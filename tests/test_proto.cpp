// Tests for the backend-agnostic coordination layer (src/proto): round
// planning edge cases, pull indexing/dedup, batching, windowing, and the
// unified exchange plan — including the budget == full-exchange boundary
// where the plan collapses to one superstep, cross-checked against
// sim::single_round_capacity.

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>

#include "proto/config.hpp"
#include "proto/exchange_plan.hpp"
#include "proto/pull_index.hpp"
#include "proto/round_planner.hpp"
#include "sim/assignment.hpp"
#include "sim/machine.hpp"
#include "sim/perf_model.hpp"
#include "wl/presets.hpp"

using namespace gnb;
using namespace gnb::proto;

namespace {

std::uint64_t plan_total(const RoundPlan& plan) {
  std::uint64_t total = 0;
  for (const Round& round : plan.rounds) total += round.bytes;
  return total;
}

}  // namespace

// ---------- rounds_needed ----------

TEST(RoundsNeeded, ZeroBytesNeedsZeroRounds) {
  EXPECT_EQ(rounds_needed(0, 1 << 20), 0u);
}

TEST(RoundsNeeded, CeilDivision) {
  EXPECT_EQ(rounds_needed(100, 100), 1u);
  EXPECT_EQ(rounds_needed(101, 100), 2u);
  EXPECT_EQ(rounds_needed(1, 100), 1u);
  EXPECT_EQ(rounds_needed(1000, 100), 10u);
}

TEST(RoundsNeeded, ZeroBudgetTreatedAsOneByte) {
  EXPECT_EQ(rounds_needed(5, 0), 5u);
}

// ---------- plan_rounds ----------

TEST(RoundPlanner, EvenSplitConservesBytesAndOrder) {
  // Two destinations, uneven queues; 3 rounds.
  const std::vector<std::vector<std::uint64_t>> serve = {{10, 10, 10, 10}, {30, 30}};
  const RoundPlan plan = plan_rounds(serve, 3);
  ASSERT_EQ(plan.nrounds(), 3u);
  EXPECT_EQ(plan_total(plan), 100u);
  // FIFO: per-destination counts across rounds sum to the queue lengths.
  std::uint32_t d0 = 0, d1 = 0;
  for (const Round& round : plan.rounds) {
    d0 += round.per_dest[0];
    d1 += round.per_dest[1];
  }
  EXPECT_EQ(d0, 4u);
  EXPECT_EQ(d1, 2u);
}

TEST(RoundPlanner, BudgetBelowLargestReadStillSchedules) {
  // One read far bigger than the budget: rounds_needed explodes, but the
  // plan must still ship the read (reads are atomic) and leave trailing
  // rounds empty rather than losing bytes or aborting.
  const std::vector<std::vector<std::uint64_t>> serve = {{1000}};
  const std::uint64_t nrounds = rounds_needed(1000, 64);  // 16 rounds
  const RoundPlan plan = plan_rounds(serve, nrounds);
  ASSERT_EQ(plan.nrounds(), 16u);
  EXPECT_EQ(plan_total(plan), 1000u);
  EXPECT_EQ(plan.rounds[0].per_dest[0], 1u);  // the read goes in round 0
  for (std::size_t t = 1; t < plan.nrounds(); ++t) EXPECT_EQ(plan.rounds[t].bytes, 0u);
}

TEST(RoundPlanner, RankWithNothingToServeStillJoinsEveryRound) {
  // A rank can owe nothing (zero tasks pulled *from* it) while the global
  // round count is > 1: its plan is all-empty rounds — it still joins the
  // collectives, it just ships no payload.
  const std::vector<std::vector<std::uint64_t>> serve = {{}, {}};
  const RoundPlan plan = plan_rounds(serve, 4);
  ASSERT_EQ(plan.nrounds(), 4u);
  for (const Round& round : plan.rounds) {
    EXPECT_EQ(round.bytes, 0u);
    EXPECT_EQ(round.per_dest[0] + round.per_dest[1], 0u);
  }
}

TEST(RoundPlanner, RoundsAreBalanced) {
  // 64 equal reads across 4 destinations into 4 rounds: the even-split
  // target keeps every round near total/nrounds.
  std::vector<std::vector<std::uint64_t>> serve(4);
  for (auto& queue : serve) queue.assign(16, 100);
  const RoundPlan plan = plan_rounds(serve, 4);
  for (const Round& round : plan.rounds) {
    EXPECT_GE(round.bytes, 1500u);
    EXPECT_LE(round.bytes, 1700u);
  }
}

// ---------- PullIndex ----------

TEST(PullIndexTest, SeparatesLocalFromRemoteAndDedups) {
  PullIndex index;
  // me = 0; reads 0,1 owned by 0; reads 10,11 owned by 1.
  index.add_task(0, 0, 1, 0, 0, 0);      // both local
  index.add_task(1, 0, 10, 0, 1, 0, 8);  // pulls 10
  index.add_task(2, 1, 10, 0, 1, 0, 8);  // needs 10 again: no new pull
  index.add_task(3, 11, 1, 1, 0, 0, 4);  // remote read on the a side
  index.finalize();

  ASSERT_EQ(index.local_tasks().size(), 1u);
  EXPECT_EQ(index.local_tasks()[0], 0u);
  ASSERT_EQ(index.pulls().size(), 2u);
  EXPECT_EQ(index.pulls()[0].read, 10u);  // ascending read order
  EXPECT_EQ(index.pulls()[1].read, 11u);
  EXPECT_EQ(index.pulls()[0].owner, 1u);
  EXPECT_EQ(index.pull_bytes(), 12u);

  ASSERT_EQ(index.tasks_for(10).size(), 2u);
  EXPECT_TRUE(index.tasks_for(99).empty());

  const auto needed = index.needed_by_owner(2);
  EXPECT_TRUE(needed[0].empty());
  ASSERT_EQ(needed[1].size(), 2u);
  EXPECT_EQ(needed[1][0], 10u);

  const auto counts = index.pulls_per_owner(2);
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 2u);
}

TEST(PullIndexTest, OwnerInvariantViolationAborts) {
  PullIndex index;
  EXPECT_DEATH(index.add_task(0, 5, 6, 1, 2, /*me=*/0), "owner invariant");
}

// ---------- batching ----------

TEST(Batching, BatchOneIsOneMessagePerPullInInputOrder) {
  const std::vector<PullRequest> pulls = {{10, 1, 0}, {20, 2, 0}, {11, 1, 0}};
  const auto batches = batch_pulls(pulls, 1);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].reads, std::vector<std::uint32_t>{10});
  EXPECT_EQ(batches[1].reads, std::vector<std::uint32_t>{20});
  EXPECT_EQ(batches[2].reads, std::vector<std::uint32_t>{11});
}

TEST(Batching, FillsPerOwnerAndFlushesLeftoversAscending) {
  const std::vector<PullRequest> pulls = {{1, 2, 0}, {2, 1, 0}, {3, 2, 0},
                                          {4, 2, 0}, {5, 0, 0}};
  const auto batches = batch_pulls(pulls, 2);
  // Owner 2 fills a batch of {1,3} first; leftovers flush as owners 0,1,2.
  ASSERT_EQ(batches.size(), 4u);
  EXPECT_EQ(batches[0].owner, 2u);
  EXPECT_EQ(batches[0].reads, (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(batches[1].owner, 0u);
  EXPECT_EQ(batches[2].owner, 1u);
  EXPECT_EQ(batches[3].owner, 2u);
  EXPECT_EQ(batches[3].reads, std::vector<std::uint32_t>{4});
}

TEST(Batching, MessageCountMatchesBatchList) {
  const std::vector<PullRequest> pulls = {{1, 2, 0}, {2, 1, 0}, {3, 2, 0},
                                          {4, 2, 0}, {5, 0, 0}};
  for (const std::size_t batch : {1, 2, 3, 100}) {
    std::vector<std::uint64_t> per_owner(3, 0);
    for (const auto& pull : pulls) ++per_owner[pull.owner];
    EXPECT_EQ(batched_message_count(per_owner, batch), batch_pulls(pulls, batch).size());
  }
}

// ---------- RequestWindow ----------

TEST(Window, EnforcesLimitAndCountsIssues) {
  RequestWindow window(2);
  EXPECT_TRUE(window.can_issue());
  window.on_issue();
  window.on_issue();
  EXPECT_FALSE(window.can_issue());
  window.on_reply();
  EXPECT_TRUE(window.can_issue());
  window.on_issue();
  EXPECT_EQ(window.issued(), 3u);
  EXPECT_EQ(window.in_flight(), 2u);
}

TEST(Window, ZeroLimitClampsToOne) {
  RequestWindow window(0);
  EXPECT_EQ(window.limit(), 1u);
}

TEST(Window, ThrottleBoundaryAtExactlyLimitOutstanding) {
  // Regression for the throttle boundary: with in_flight == limit the
  // window must be closed (not off-by-one open), one reply must open
  // exactly one slot, and in_flight must never exceed limit through a
  // long issue/reply interleave.
  constexpr std::size_t kLimit = 8;
  RequestWindow window(kLimit);
  for (std::size_t i = 0; i < kLimit; ++i) {
    EXPECT_TRUE(window.can_issue()) << "slot " << i;
    window.on_issue();
  }
  EXPECT_EQ(window.in_flight(), kLimit);
  EXPECT_FALSE(window.can_issue());  // limit == outstanding: closed
  window.on_reply();
  EXPECT_EQ(window.in_flight(), kLimit - 1);
  EXPECT_TRUE(window.can_issue());  // exactly one slot opened
  window.on_issue();
  EXPECT_FALSE(window.can_issue());
  // Sustained steady state at the boundary: reply/issue pairs keep the
  // window saturated but never oversubscribed.
  for (int step = 0; step < 100; ++step) {
    window.on_reply();
    ASSERT_TRUE(window.can_issue());
    window.on_issue();
    ASSERT_EQ(window.in_flight(), kLimit);
    ASSERT_FALSE(window.can_issue());
  }
  EXPECT_EQ(window.issued(), kLimit + 1 + 100);
}

TEST(Window, ReplyUnderflowIsClamped) {
  RequestWindow window(2);
  window.on_reply();  // stray reply with nothing in flight
  EXPECT_EQ(window.in_flight(), 0u);
  EXPECT_TRUE(window.can_issue());
}

// ---------- effective_round_budget ----------

TEST(Budget, ExplicitBudgetHonoredExactly) {
  ProtoConfig config;
  config.bsp_round_budget = 4'096;  // below kMinDerivedBudget on purpose
  EXPECT_EQ(effective_round_budget(config, 1ull << 30, 0), 4'096u);
}

TEST(Budget, DerivedBudgetIsCapacityMinusResidentWithFloor) {
  ProtoConfig config;  // bsp_round_budget = 0: derive
  EXPECT_EQ(effective_round_budget(config, 100ull << 20, 36ull << 20), 64ull << 20);
  // Resident swallows capacity: floored, never zero.
  EXPECT_GE(effective_round_budget(config, 1ull << 20, 2ull << 20), kMinDerivedBudget);
  // Unknown capacity: the documented default.
  EXPECT_EQ(effective_round_budget(config, 0, 0), kDefaultBspRoundBudget);
}

// ---------- plan_exchange ----------

TEST(ExchangePlanTest, SingleRankWorldHasNoExchange) {
  std::vector<RankExchangeInput> ranks(1);
  ranks[0].budget = 1 << 20;  // nothing to pull or serve
  const ExchangePlan plan = plan_exchange(ranks, ProtoConfig{});
  EXPECT_EQ(plan.rounds, 0u);
  EXPECT_EQ(plan.bsp_messages, 0u);
  EXPECT_EQ(plan.async_messages, 0u);
  EXPECT_EQ(plan.exchange_bytes, 0u);
}

TEST(ExchangePlanTest, RoundsAreGlobalMaxOverRanks) {
  std::vector<RankExchangeInput> ranks(3);
  ranks[0] = {100, 100, {}, 100};  // 2 rounds
  ranks[1] = {500, 100, {}, 100};  // 6 rounds — the straggler decides
  ranks[2] = {0, 0, {}, 100};      // zero tasks on this rank
  const ExchangePlan plan = plan_exchange(ranks, ProtoConfig{});
  EXPECT_EQ(plan.rounds, 6u);
  EXPECT_EQ(plan.bsp_messages, 6u * 3 * 3);
  EXPECT_EQ(plan.exchange_bytes, 600u);
}

TEST(ExchangePlanTest, BudgetEqualToFullExchangeIsOneRound) {
  std::vector<RankExchangeInput> ranks(2);
  ranks[0] = {300, 200, {}, 500};  // budget == pull + serve exactly
  ranks[1] = {200, 300, {}, 500};
  const ExchangePlan plan = plan_exchange(ranks, ProtoConfig{});
  EXPECT_EQ(plan.rounds, 1u);
}

TEST(ExchangePlanTest, SingleRoundCapacityMatchesSimBoundary) {
  // Derive the budget from exactly the capacity sim::single_round_capacity
  // reports: the shared planner must agree it is a one-superstep exchange —
  // and must not at capacity - 1.
  const auto workload = [] {
    wl::TaskModelParams params;
    params.n_reads = 2'000;
    params.n_tasks = 20'000;
    params.mean_length = 4'000;
    return wl::generate_sim_workload(params, 1);
  }();
  const sim::MachineParams machine = sim::cori_knl(2);
  const sim::SimAssignment assignment = sim::assign(workload, machine.total_ranks());
  const std::uint64_t capacity = sim::single_round_capacity(assignment);

  core::CostCalibration calibration;
  calibration.cells_per_second = 2e8;
  calibration.overhead_per_task = 3e-6;
  sim::SimOptions options;
  options.calibration = calibration;
  options.proto.bsp_round_budget = 0;  // derive from memory

  sim::MachineParams exact = machine;
  exact.memory_per_core = capacity;
  EXPECT_EQ(sim::simulate_bsp(exact, assignment, options).rounds, 1u);

  sim::MachineParams short_by_one = machine;
  short_by_one.memory_per_core = capacity - 1;
  EXPECT_GT(sim::simulate_bsp(short_by_one, assignment, options).rounds, 1u);
}

// ---------- compute_threads plumbing ----------

TEST(ProtoConfig, ComputeThreadsFromEnv) {
  unsetenv("GNB_COMPUTE_THREADS");
  EXPECT_EQ(compute_threads_from_env(1), 1u);
  EXPECT_EQ(compute_threads_from_env(3), 3u);  // fallback passes through
  setenv("GNB_COMPUTE_THREADS", "4", 1);
  EXPECT_EQ(compute_threads_from_env(1), 4u);
  setenv("GNB_COMPUTE_THREADS", "0", 1);  // zero is not a thread count
  EXPECT_EQ(compute_threads_from_env(2), 2u);
  setenv("GNB_COMPUTE_THREADS", "junk", 1);
  EXPECT_EQ(compute_threads_from_env(2), 2u);
  setenv("GNB_COMPUTE_THREADS", "", 1);
  EXPECT_EQ(compute_threads_from_env(5), 5u);
  unsetenv("GNB_COMPUTE_THREADS");
}

TEST(ProtoConfig, ComputeThreadsDefaultsSerial) {
  unsetenv("GNB_COMPUTE_THREADS");  // the default is env-seeded
  const ProtoConfig config;
  EXPECT_EQ(config.compute_threads, 1u);
  EXPECT_GT(config.read_cache_bytes, 0u);  // caching on by default
}

TEST(ProtoConfig, ComputeThreadsDefaultSeededFromEnv) {
  // The CI hook: exporting GNB_COMPUTE_THREADS drives every
  // default-constructed config (and with it the whole default-config test
  // matrix) through the worker pool.
  setenv("GNB_COMPUTE_THREADS", "4", 1);
  const ProtoConfig from_env;
  EXPECT_EQ(from_env.compute_threads, 4u);
  unsetenv("GNB_COMPUTE_THREADS");
  const ProtoConfig serial;
  EXPECT_EQ(serial.compute_threads, 1u);
}

// ---------- wire compression knob ----------

TEST(WireConfig, ParseRoundTripsEveryMode) {
  for (const WireCompression mode :
       {WireCompression::kOff, WireCompression::kPack2, WireCompression::kPack2Rle,
        WireCompression::kAuto}) {
    const auto parsed = parse_wire_compression(to_string(mode));
    ASSERT_TRUE(parsed.has_value()) << to_string(mode);
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(parse_wire_compression("gzip").has_value());
  EXPECT_FALSE(parse_wire_compression("").has_value());
}

TEST(WireConfig, DefaultSeededFromEnv) {
  // The CI hook: exporting GNB_WIRE_COMPRESSION drives every
  // default-constructed config (and with it the fuzz-parity and chaos
  // matrices) through one codec.
  setenv("GNB_WIRE_COMPRESSION", "pack2-rle", 1);
  const ProtoConfig forced;
  EXPECT_EQ(forced.wire_compression, WireCompression::kPack2Rle);
  setenv("GNB_WIRE_COMPRESSION", "junk", 1);
  EXPECT_EQ(wire_compression_from_env(WireCompression::kOff), WireCompression::kOff);
  unsetenv("GNB_WIRE_COMPRESSION");
  const ProtoConfig config;
  EXPECT_EQ(config.wire_compression, WireCompression::kAuto);
}

// ---------- plan_node_exchange ----------

namespace {

/// 4 ranks on 2 nodes (rpn = 2). Ranks 0 and 1 both pull read 10 from
/// rank 2 (cross-node: proxied), rank 0 pulls read 11 from rank 1
/// (same node: direct), rank 3 pulls read 12 from rank 0 (cross-node).
NodePlanInput two_node_input() {
  NodePlanInput input;
  input.ranks_per_node = 2;
  input.pulls.resize(4);
  input.pulls[0].push_back(PullRequest{10, 2, 100, 400});
  input.pulls[1].push_back(PullRequest{10, 2, 100, 400});
  input.pulls[0].push_back(PullRequest{11, 1, 50, 200});
  input.pulls[3].push_back(PullRequest{12, 0, 70, 280});
  return input;
}

}  // namespace

TEST(NodeExchange, ProxyDedupsCrossNodePulls) {
  const NodeExchangePlan plan = plan_node_exchange(two_node_input(), ProtoConfig{});
  // Totals are conserved: every requester still gets its frame.
  EXPECT_EQ(plan.exchange_bytes, 100u + 100 + 50 + 70);
  EXPECT_EQ(plan.raw_bytes, 400u + 400 + 200 + 280);
  // Read 10 crosses the NIC once (rank 0 is the proxy), read 12 once;
  // rank 1's copy of read 10 and the same-node read 11 ride intra-node.
  EXPECT_EQ(plan.inter_node_bytes, 100u + 70);
  EXPECT_EQ(plan.flat_inter_node_bytes, 100u + 100 + 70);
  EXPECT_EQ(plan.intra_node_bytes, 100u + 50);
  EXPECT_LE(plan.inter_node_bytes, plan.flat_inter_node_bytes);
  EXPECT_EQ(plan.inter_node_bytes + plan.intra_node_bytes, plan.exchange_bytes);
  // Two ordered node pairs are active: node1->node0 (read 10) and
  // node0->node1 (read 12).
  EXPECT_EQ(plan.rounds, 1u);
  EXPECT_EQ(plan.node_messages, 2u);
  EXPECT_EQ(plan.bsp_messages, 2u * 4 * 4);  // main + forward alltoallv
}

TEST(NodeExchange, FlatGroupingMatchesPlanExchange) {
  // rpn = 1 degenerates to the flat exchange: no proxies, no forwards,
  // inter-node equals the flat split.
  NodePlanInput input = two_node_input();
  input.ranks_per_node = 1;
  const NodeExchangePlan plan = plan_node_exchange(input, ProtoConfig{});
  EXPECT_EQ(plan.exchange_bytes, 100u + 100 + 50 + 70);
  // Every pull crosses "nodes" now (each rank is its own node).
  EXPECT_EQ(plan.inter_node_bytes, plan.flat_inter_node_bytes);
  EXPECT_EQ(plan.intra_node_bytes, 0u);
}

TEST(NodeExchange, RoundsBudgetOnlyDedupedDirectTraffic) {
  NodePlanInput input = two_node_input();
  // Busiest rank is 0: direct pulls 100 (read 10, as proxy) + 50 (read
  // 11, same node) plus a direct serve of 70 (read 12) = 220 bytes. A
  // 100-byte budget makes that 3 rounds; rank 1's forwarded copy of read
  // 10 rides along without inflating the count (else rank 2 would serve
  // 200 and the budget arithmetic would diverge from the engine's).
  input.budgets.assign(4, 100);
  const NodeExchangePlan plan = plan_node_exchange(input, ProtoConfig{});
  EXPECT_EQ(plan.rounds, 3u);
}

TEST(NodeExchange, SelfPullAborts) {
  NodePlanInput input;
  input.ranks_per_node = 2;
  input.pulls.resize(2);
  input.pulls[0].push_back(PullRequest{5, 0, 10, 40});
  EXPECT_DEATH((void)plan_node_exchange(input, ProtoConfig{}), "pulls its own read");
}
