// Crash-fault recovery suite: the planner's pure decisions (OwnerMap,
// plan_recovery), the crash matrix over both engines (any single or double
// crash schedule must yield an alignment set byte-identical to the
// fault-free run, with every lost task re-executed exactly once), restart/
// rejoin, durable-record corruption in rt::DurableStore, and the
// simulator's crash and self-healing costing.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <tuple>
#include <vector>

#include "core/async.hpp"
#include "core/bsp.hpp"
#include "core/recovery.hpp"
#include "pipeline/pipeline.hpp"
#include "proto/config.hpp"
#include "proto/recovery.hpp"
#include "rt/durable.hpp"
#include "rt/fault.hpp"
#include "rt/world.hpp"
#include "sim/assignment.hpp"
#include "sim/machine.hpp"
#include "sim/perf_model.hpp"
#include "stat/breakdown.hpp"
#include "util/error.hpp"
#include "wl/presets.hpp"

using namespace gnb;

namespace {

#if defined(__SANITIZE_THREAD__)
#define GNB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GNB_TSAN_BUILD 1
#endif
#endif

// ---------- planner: OwnerMap ----------

std::vector<std::uint32_t> partition_bounds(std::uint32_t reads, std::uint32_t ranks) {
  std::vector<std::uint32_t> bounds(ranks + 1);
  for (std::uint32_t r = 0; r <= ranks; ++r)
    bounds[r] = static_cast<std::uint32_t>(std::uint64_t{reads} * r / ranks);
  return bounds;
}

TEST(OwnerMap, AllAliveMatchesBasePartition) {
  const auto bounds = partition_bounds(100, 4);
  const proto::OwnerMap map(bounds, {1, 1, 1, 1});
  for (std::uint32_t read = 0; read < 100; ++read) {
    std::uint32_t base = 0;
    while (read >= bounds[base + 1]) ++base;
    EXPECT_EQ(map.owner(read), base) << "read " << read;
  }
  EXPECT_EQ(map.survivors(), (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(OwnerMap, DeadIntervalSplitContiguouslyAmongSurvivors) {
  const auto bounds = partition_bounds(120, 4);
  const proto::OwnerMap map(bounds, {1, 0, 1, 1});
  // Alive ranks keep their base intervals.
  for (std::uint32_t read = bounds[0]; read < bounds[1]; ++read) EXPECT_EQ(map.owner(read), 0u);
  for (std::uint32_t read = bounds[2]; read < bounds[3]; ++read) EXPECT_EQ(map.owner(read), 2u);
  for (std::uint32_t read = bounds[3]; read < bounds[4]; ++read) EXPECT_EQ(map.owner(read), 3u);
  // The dead interval is covered entirely by survivors, in ascending-rank
  // contiguous chunks of near-equal size.
  std::vector<std::uint32_t> owners;
  for (std::uint32_t read = bounds[1]; read < bounds[2]; ++read) {
    const std::uint32_t owner = map.owner(read);
    EXPECT_NE(owner, 1u);
    if (owners.empty() || owners.back() != owner) owners.push_back(owner);
  }
  EXPECT_EQ(owners, (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(OwnerMap, PureFunctionOfInputs) {
  const auto bounds = partition_bounds(997, 8);
  const std::vector<char> alive{1, 0, 1, 1, 0, 1, 1, 1};
  const proto::OwnerMap a(bounds, alive);
  const proto::OwnerMap b(bounds, alive);
  for (std::uint32_t read = 0; read < 997; ++read) EXPECT_EQ(a.owner(read), b.owner(read));
}

TEST(OwnerMap, EveryReadOwnedBySomeSurvivor) {
  const auto bounds = partition_bounds(53, 5);  // lumpy intervals
  const std::vector<char> alive{0, 1, 0, 1, 1};
  const proto::OwnerMap map(bounds, alive);
  for (std::uint32_t read = 0; read < 53; ++read) {
    const std::uint32_t owner = map.owner(read);
    ASSERT_LT(owner, 5u);
    EXPECT_TRUE(alive[owner]) << "read " << read << " owned by dead rank " << owner;
    EXPECT_TRUE(map.owns(owner, read));
  }
}

// ---------- planner: plan_recovery ----------

TEST(RecoveryPlan, NoDeadRanksYieldsEmptyPlan) {
  const proto::RecoveryPlan plan = proto::plan_recovery({}, {1, 1, 1});
  EXPECT_TRUE(plan.adoptions.empty());
  ASSERT_EQ(plan.assignments.size(), 3u);
  for (const auto& tasks : plan.assignments) EXPECT_TRUE(tasks.empty());
}

TEST(RecoveryPlan, LostTasksAreManifestMinusCompletions) {
  proto::DeadRankState dead;
  dead.rank = 1;
  dead.manifest_tasks = 5;
  dead.completed = {0, 3};  // evidence anywhere in stable storage
  const proto::RecoveryPlan plan = proto::plan_recovery({dead}, {1, 0, 1});
  // Lost tasks 1, 2, 4 dealt round-robin over ascending survivors {0, 2}.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> dealt;  // (assignee, index)
  ASSERT_EQ(plan.assignments.size(), 3u);
  EXPECT_TRUE(plan.assignments[1].empty());
  for (const std::uint32_t r : {0u, 2u})
    for (const proto::TaskClaim& claim : plan.assignments[r]) {
      EXPECT_EQ(claim.origin, 1u);
      dealt.emplace_back(r, claim.index);
    }
  ASSERT_EQ(dealt.size(), 3u);
  std::vector<std::uint32_t> indices;
  for (const auto& [r, index] : dealt) indices.push_back(index);
  std::sort(indices.begin(), indices.end());
  EXPECT_EQ(indices, (std::vector<std::uint32_t>{1, 2, 4}));
}

TEST(RecoveryPlan, UnclaimedLogWithRecordsGetsAnAdopter) {
  proto::DeadRankState dead;
  dead.rank = 2;
  dead.manifest_tasks = 0;
  dead.has_records = true;
  const std::vector<char> alive{1, 1, 0, 1};
  const proto::RecoveryPlan plan = proto::plan_recovery({dead}, alive);
  ASSERT_EQ(plan.adoptions.size(), 1u);
  EXPECT_EQ(plan.adoptions[0].dead, 2u);
  // survivors[dead % survivors] = {0,1,3}[2 % 3] = 3.
  EXPECT_EQ(plan.adoptions[0].adopter, 3u);
}

TEST(RecoveryPlan, ClaimedLogIsNotAdoptedTwice) {
  proto::DeadRankState dead;
  dead.rank = 0;
  dead.has_records = true;
  dead.claimant = 2;  // an alive rank already merged this log
  const proto::RecoveryPlan plan = proto::plan_recovery({dead}, {0, 1, 1});
  EXPECT_TRUE(plan.adoptions.empty());
}

TEST(RecoveryPlan, Deterministic) {
  std::vector<proto::DeadRankState> dead(2);
  dead[0].rank = 1;
  dead[0].manifest_tasks = 7;
  dead[0].has_records = true;
  dead[1].rank = 4;
  dead[1].manifest_tasks = 3;
  dead[1].completed = {1};
  const std::vector<char> alive{1, 0, 1, 1, 0, 1};
  const proto::RecoveryPlan a = proto::plan_recovery(dead, alive);
  const proto::RecoveryPlan b = proto::plan_recovery(dead, alive);
  ASSERT_EQ(a.adoptions.size(), b.adoptions.size());
  ASSERT_EQ(a.assignments.size(), b.assignments.size());
  for (std::size_t r = 0; r < a.assignments.size(); ++r) {
    ASSERT_EQ(a.assignments[r].size(), b.assignments[r].size());
    for (std::size_t i = 0; i < a.assignments[r].size(); ++i) {
      EXPECT_EQ(a.assignments[r][i].origin, b.assignments[r][i].origin);
      EXPECT_EQ(a.assignments[r][i].index, b.assignments[r][i].index);
    }
  }
}

// ---------- the crash matrix: engines survive rank death ----------

struct Workload {
  wl::SampledDataset dataset;
  pipeline::TaskSet tasks;
};

Workload make_workload(std::size_t ranks, std::uint64_t seed = 33) {
  Workload w;
  wl::DatasetSpec spec = wl::ecoli30x_spec();
#ifdef GNB_TSAN_BUILD
  spec.genome.length = 2'000;
#else
  spec.genome.length = 10'000;
#endif
  w.dataset = wl::synthesize(spec, seed);
  pipeline::PipelineConfig config;
  config.k = spec.k;
  config.lo = 2;
  config.hi = 8;
  w.tasks = pipeline::run_serial(w.dataset.reads, config, ranks);
  return w;
}

struct RunOutcome {
  std::vector<align::AlignmentRecord> records;  // sorted, all ranks merged
  stat::FaultCounters faults;                   // summed over ranks
  // Work executed vs work the kernel seam saw, summed over the ranks that
  // returned (a dead rank's result stays empty).
  std::uint64_t tasks_done = 0;
  std::uint64_t cells = 0;
  std::uint64_t kernel_tasks = 0;
  std::uint64_t kernel_cells = 0;
  std::uint64_t pool_tasks = 0;
  // Tasks the plan's crashes lost, read back from durable evidence with
  // recovery's own decoders: each crashed rank's manifest tasks that have
  // no completion entry in its own log.
  std::uint64_t lost_tasks = 0;
};

RunOutcome run_engine(bool async_mode, std::size_t ranks, const Workload& w,
                      const core::EngineConfig& config, const rt::FaultPlan& plan = {}) {
  rt::World world(ranks);
  if (plan.enabled()) world.set_faults(plan);
  std::vector<core::EngineResult> results(ranks);
  world.run([&](rt::Rank& rank) {
    results[rank.id()] =
        async_mode ? core::async_align(rank, w.dataset.reads, w.tasks.bounds,
                                       w.tasks.per_rank[rank.id()], config)
                   : core::bsp_align(rank, w.dataset.reads, w.tasks.bounds,
                                     w.tasks.per_rank[rank.id()], config);
  });
  RunOutcome outcome;
  for (const auto& result : results) {
    outcome.records.insert(outcome.records.end(), result.accepted.begin(),
                           result.accepted.end());
    outcome.tasks_done += result.tasks_done;
    outcome.cells += result.cells;
    outcome.kernel_tasks += result.compute.kernel_tasks;
    outcome.kernel_cells += result.compute.kernel_cells;
    outcome.pool_tasks += result.compute.pool_tasks;
  }
  for (const stat::Breakdown& b : world.breakdowns()) outcome.faults.merge(b.faults);
  const rt::DurableStore& durable = world.durable_store();
  for (const rt::CrashEvent& crash : plan.crashes) {
    std::vector<char> completed(
        core::RecoveryContext::parse_manifest(durable.manifest(crash.rank)).size(), 0);
    for (const auto& entry : core::RecoveryContext::parse_log(durable.log(crash.rank)))
      if (entry.kind == core::RecoveryContext::kEntryCompletion) completed.at(entry.index) = 1;
    outcome.lost_tasks += static_cast<std::uint64_t>(
        std::count(completed.begin(), completed.end(), char{0}));
  }
  std::sort(outcome.records.begin(), outcome.records.end(),
            [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
              return std::tie(x.read_a, x.read_b, x.alignment.score) <
                     std::tie(y.read_a, y.read_b, y.alignment.score);
            });
  return outcome;
}

/// Byte-identical alignment output: a crash may change when and where
/// tasks execute, never what is computed or how often it is emitted.
void expect_identical(const RunOutcome& crashed, const RunOutcome& clean) {
  ASSERT_EQ(crashed.records.size(), clean.records.size());
  for (std::size_t i = 0; i < clean.records.size(); ++i) {
    const align::AlignmentRecord& a = crashed.records[i];
    const align::AlignmentRecord& b = clean.records[i];
    ASSERT_EQ(a.read_a, b.read_a) << "record " << i;
    ASSERT_EQ(a.read_b, b.read_b) << "record " << i;
    EXPECT_EQ(a.alignment.score, b.alignment.score) << "record " << i;
    EXPECT_EQ(a.alignment.a_begin, b.alignment.a_begin) << "record " << i;
    EXPECT_EQ(a.alignment.a_end, b.alignment.a_end) << "record " << i;
    EXPECT_EQ(a.alignment.b_begin, b.alignment.b_begin) << "record " << i;
    EXPECT_EQ(a.alignment.b_end, b.alignment.b_end) << "record " << i;
    EXPECT_EQ(a.alignment.b_reversed, b.alignment.b_reversed) << "record " << i;
    EXPECT_EQ(a.alignment.cells, b.alignment.cells) << "record " << i;
  }
  // No task emitted twice: every (a, b) pair appears at most once.
  for (std::size_t i = 1; i < crashed.records.size(); ++i)
    EXPECT_FALSE(crashed.records[i - 1].read_a == crashed.records[i].read_a &&
                 crashed.records[i - 1].read_b == crashed.records[i].read_b)
        << "duplicate emission of pair (" << crashed.records[i].read_a << ", "
        << crashed.records[i].read_b << ")";
}

/// One task-execution path: every task a returning rank executed — its
/// own, re-executed lost ones, a rejoiner's unfinished ones — went through
/// the kernel seam (on the workers, when the config has them), so the
/// kernel table accounts for all of them.
void expect_kernel_covers_execution(const RunOutcome& outcome,
                                    const core::EngineConfig& config) {
  EXPECT_GT(outcome.tasks_done, 0u);
  EXPECT_EQ(outcome.kernel_tasks, outcome.tasks_done);
  EXPECT_EQ(outcome.kernel_cells, outcome.cells);
  if (config.proto.compute_threads > 1) {
    EXPECT_EQ(outcome.pool_tasks, outcome.tasks_done);
  }
}

rt::FaultPlan crash_plan(std::initializer_list<rt::CrashEvent> crashes) {
  rt::FaultPlan plan;
  plan.crashes = crashes;
  return plan;
}

void run_crash_matrix(bool async_mode, std::size_t ranks, const rt::FaultPlan& plan,
                      const core::EngineConfig& config) {
  const Workload w = make_workload(ranks);
  const RunOutcome clean = run_engine(async_mode, ranks, w, config);
  ASSERT_FALSE(clean.records.empty());
  const RunOutcome crashed = run_engine(async_mode, ranks, w, config, plan);
  expect_identical(crashed, clean);
  expect_kernel_covers_execution(crashed, config);
  // Recovery evidence: every survivor observed the deaths, stable storage
  // was written, and the lost tasks were re-executed — exactly once each
  // after one death. A second death can also lose re-executions the dead
  // rank ran for the first but never logged, so those run again.
  EXPECT_GT(crashed.faults.crashes, 0u);
  EXPECT_GT(crashed.faults.checkpoint_bytes, 0u);
  if (plan.crashes.size() == 1) {
    EXPECT_EQ(crashed.faults.tasks_reexecuted, crashed.lost_tasks);
  } else {
    EXPECT_GE(crashed.faults.tasks_reexecuted, crashed.lost_tasks);
  }
  EXPECT_EQ(crashed.faults.tasks_reexecuted > 0, crashed.lost_tasks > 0);
}

class CrashMatrix : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrashMatrix, BspSurvivesOneEarlyDeath) {
  run_crash_matrix(false, GetParam(), crash_plan({{1, 0}}), core::EngineConfig{});
}

TEST_P(CrashMatrix, BspSurvivesOneMidPhaseDeath) {
  run_crash_matrix(false, GetParam(), crash_plan({{1, 3}}), core::EngineConfig{});
}

TEST_P(CrashMatrix, AsyncSurvivesOneEarlyDeath) {
  run_crash_matrix(true, GetParam(), crash_plan({{1, 0}}), core::EngineConfig{});
}

TEST_P(CrashMatrix, AsyncSurvivesOneMidPhaseDeath) {
  run_crash_matrix(true, GetParam(), crash_plan({{1, 5}}), core::EngineConfig{});
}

INSTANTIATE_TEST_SUITE_P(Ranks, CrashMatrix, ::testing::Values(2, 4, 8));

class DoubleCrash : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DoubleCrash, BspSurvivesTwoDeaths) {
  run_crash_matrix(false, GetParam(), crash_plan({{1, 0}, {2, 3}}), core::EngineConfig{});
}

TEST_P(DoubleCrash, AsyncSurvivesTwoDeaths) {
  run_crash_matrix(true, GetParam(), crash_plan({{1, 0}, {2, 6}}), core::EngineConfig{});
}

INSTANTIATE_TEST_SUITE_P(Ranks, DoubleCrash, ::testing::Values(4, 8));

TEST(CrashMatrix, BspMultiRoundCrashMidExchange) {
  // A tight round budget forces several supersteps, so the death lands in
  // the middle of the exchange with rounds already consumed on both sides.
  core::EngineConfig tight;
  tight.proto.bsp_round_budget = 1 << 12;
  run_crash_matrix(false, 4, crash_plan({{2, 5}}), tight);
}

TEST(CrashMatrix, AsyncCrashWithSmallWindow) {
  core::EngineConfig config;
  config.proto.async_window = 4;  // deaths interleave with throttled pulls
  run_crash_matrix(true, 4, crash_plan({{3, 8}}), config);
}

// ---------- restart / rejoin: a comeback rank re-enters cleanly ----------

void run_rejoin_case(bool async_mode, std::size_t ranks, const std::string& spec,
                     std::uint64_t want_rejoins,
                     const core::EngineConfig& config = core::EngineConfig{}) {
  const Workload w = make_workload(ranks);
  const RunOutcome clean = run_engine(async_mode, ranks, w, config);
  ASSERT_FALSE(clean.records.empty());
  const RunOutcome healed =
      run_engine(async_mode, ranks, w, config, rt::FaultPlan::parse(spec));
  expect_identical(healed, clean);
  expect_kernel_covers_execution(healed, config);
  EXPECT_GT(healed.faults.crashes, 0u);
  if (want_rejoins > 0) {
    EXPECT_EQ(healed.faults.rejoins, want_rejoins) << spec;
  }
}

class RejoinMatrix : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RejoinMatrix, BspRestartedRankRejoins) {
  run_rejoin_case(false, GetParam(), "seed=51,crash@1:0,restart@1:0", 1);
}

TEST_P(RejoinMatrix, AsyncRestartedRankRejoins) {
  run_rejoin_case(true, GetParam(), "seed=52,crash@1:0,restart@1:0", 1);
}

TEST_P(RejoinMatrix, BspMidPhaseCrashRejoins) {
  run_rejoin_case(false, GetParam(), "seed=53,crash@1:3,restart@1:0", 1);
}

TEST_P(RejoinMatrix, AsyncMidPhaseCrashRejoins) {
  run_rejoin_case(true, GetParam(), "seed=54,crash@1:5,restart@1:0", 1);
}

INSTANTIATE_TEST_SUITE_P(Ranks, RejoinMatrix, ::testing::Values(2, 4, 8));

TEST(Rejoin, LateComebackIsAbandonedHarmlessly) {
  // A huge skip budget means the comeback rank declines every admitting
  // gate the survivors still have; it is abandoned at teardown and the
  // output is untouched (no rejoin assertion — abandonment is legal).
  run_rejoin_case(true, 4, "seed=55,crash@1:3,restart@1:50", 0);
}

// ---------- re-execution on the worker pool, both kernel backends ----------
// Pinned to two compute threads whatever GNB_COMPUTE_THREADS says, so the
// re-executed and rejoin batches always run on pool workers.

core::EngineConfig pooled_config(proto::BatchAlignerKind kind) {
  core::EngineConfig config;
  config.proto.compute_threads = 2;
  config.proto.batch_aligner = kind;
  return config;
}

class PooledCrashMatrix : public ::testing::TestWithParam<proto::BatchAlignerKind> {};

TEST_P(PooledCrashMatrix, BspMidPhaseDeath) {
  run_crash_matrix(false, 4, crash_plan({{1, 3}}), pooled_config(GetParam()));
}

TEST_P(PooledCrashMatrix, AsyncMidPhaseDeath) {
  run_crash_matrix(true, 4, crash_plan({{1, 5}}), pooled_config(GetParam()));
}

TEST_P(PooledCrashMatrix, BspRestartRejoins) {
  run_rejoin_case(false, 4, "seed=53,crash@1:3,restart@1:0", 1, pooled_config(GetParam()));
}

TEST_P(PooledCrashMatrix, AsyncRestartRejoins) {
  run_rejoin_case(true, 4, "seed=54,crash@1:5,restart@1:0", 1, pooled_config(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PooledCrashMatrix,
    ::testing::Values(proto::BatchAlignerKind::kScalar, proto::BatchAlignerKind::kSimd),
    [](const ::testing::TestParamInfo<proto::BatchAlignerKind>& param_info) {
      return std::string(proto::to_string(param_info.param));
    });

// ---------- durable-record corruption: torn writes and ancestor chains ----------

TEST(DurableStore, TornLogWriteIsDetectedNotParsed) {
  rt::DurableStore store;
  store.reset(2);
  const rt::DurableStore::Bytes a{1, 2, 3, 4}, b{5, 6, 7}, c{8, 9, 10, 11, 12};
  store.append_log(1, a);
  store.append_log(1, b);
  store.append_log(1, c);
  rt::DurableStore::Bytes expect = a;
  expect.insert(expect.end(), b.begin(), b.end());
  {
    rt::DurableStore::Bytes whole = expect;
    whole.insert(whole.end(), c.begin(), c.end());
    EXPECT_EQ(store.log(1), whole);
    EXPECT_EQ(store.corrupt_records(), 0u);
  }
  // Tear the last record mid-byte — the shape a writer dying mid-write
  // leaves on a real file system. The read must stop cleanly at the valid
  // prefix, never parse garbage.
  store.truncate_last_log_record(1, /*keep=*/13);  // 12-byte header + 1 payload byte
  EXPECT_EQ(store.log(1), expect);
  EXPECT_EQ(store.corrupt_records(), 1u);
  (void)store.log(1);  // detection is counted once, not per read
  EXPECT_EQ(store.corrupt_records(), 1u);
  EXPECT_TRUE(store.log(0).empty());  // other ranks untouched
}

TEST(DurableStore, CorruptManifestFallsBackToValidAncestor) {
  rt::FaultPlan plan;
  plan.corrupts.push_back({0, rt::DurableStore::kKindManifest, 1});
  const rt::FaultInjector injector(plan);
  rt::DurableStore store;
  store.reset(1);
  store.set_injector(&injector);
  const rt::DurableStore::Bytes first{10, 20, 30}, second{40, 50}, third{60, 61, 62};
  store.write_manifest(0, first);   // seq 0: valid
  store.write_manifest(0, second);  // seq 1: corrupted at write time
  EXPECT_EQ(store.manifest(0), first);  // healed through the ancestor
  EXPECT_EQ(store.corrupt_records(), 1u);
  EXPECT_EQ(store.fallback_records(), 1u);
  (void)store.manifest(0);
  EXPECT_EQ(store.corrupt_records(), 1u);  // counted once
  store.write_manifest(0, third);  // seq 2: valid again, heals forward
  EXPECT_EQ(store.manifest(0), third);
  store.set_injector(nullptr);
}

TEST(Corrupt, DeadRanksTornLogHealsToCleanPrefixAsync) {
  // Rank 1's first completion record is corrupted at write time and rank 1
  // later dies: the survivors' evidence scan stops at the (empty) valid
  // prefix and re-executes the lost work — bytes unchanged, detection
  // counted.
  constexpr std::size_t kRanks = 4;
  const Workload w = make_workload(kRanks);
  const core::EngineConfig config;
  const RunOutcome clean = run_engine(true, kRanks, w, config);
  const RunOutcome healed = run_engine(
      true, kRanks, w, config, rt::FaultPlan::parse("seed=57,crash@1:5,corrupt@1:2:0"));
  expect_identical(healed, clean);
  EXPECT_GE(healed.faults.corrupt_records, 1u);
}

TEST(Corrupt, DeadRanksTornLogHealsToCleanPrefixBsp) {
  constexpr std::size_t kRanks = 4;
  const Workload w = make_workload(kRanks);
  const core::EngineConfig config;
  const RunOutcome clean = run_engine(false, kRanks, w, config);
  const RunOutcome healed = run_engine(
      false, kRanks, w, config, rt::FaultPlan::parse("seed=58,crash@1:3,corrupt@1:2:0"));
  expect_identical(healed, clean);
  EXPECT_GE(healed.faults.corrupt_records, 1u);
}

TEST(Corrupt, RejoinerManifestRewriteFallsBackToAncestor) {
  // The comeback rank's manifest rewrite (seq 1) is the corrupted record;
  // readers fall back to its original seq-0 manifest — same content, so
  // the run heals with identical bytes and the fallback is observable.
  constexpr std::size_t kRanks = 4;
  const Workload w = make_workload(kRanks);
  const core::EngineConfig config;
  const RunOutcome clean = run_engine(true, kRanks, w, config);
  const RunOutcome healed =
      run_engine(true, kRanks, w, config,
                 rt::FaultPlan::parse("seed=59,crash@1:4,restart@1:0,corrupt@1:1:1"));
  expect_identical(healed, clean);
  EXPECT_EQ(healed.faults.rejoins, 1u);
  EXPECT_GE(healed.faults.corrupt_records, 1u);
  EXPECT_GE(healed.faults.fallback_checkpoints, 1u);
}

// ---------- simulator crash costing ----------

TEST(SimCrash, BspSurvivorsAbsorbDeadWork) {
  wl::TaskModelParams params;
  params.n_reads = 2'000;
  params.n_tasks = 20'000;
  params.mean_length = 4'000;
  const auto workload = wl::generate_sim_workload(params, 1);
  const sim::MachineParams machine = sim::cori_knl(1);
  const sim::SimAssignment assignment = sim::assign(workload, machine.total_ranks());
  sim::SimOptions options;
  options.calibration.cells_per_second = 2e8;
  options.calibration.overhead_per_task = 3e-6;
  const sim::SimResult clean = sim::simulate_bsp(machine, assignment, options);
  options.faults.crashes = {{5, 0}};
  const sim::SimResult crashed = sim::simulate_bsp(machine, assignment, options);
  EXPECT_GT(crashed.runtime, 0.0);
  // The dead rank stops contributing; the survivors book the recovery.
  EXPECT_LT(crashed.ranks[5].compute, clean.ranks[5].compute);
  EXPECT_EQ(crashed.ranks[5].faults.crashes, 0u);
  std::uint64_t reexecuted = 0;
  for (std::size_t r = 0; r < crashed.ranks.size(); ++r) {
    if (r == 5) continue;
    EXPECT_EQ(crashed.ranks[r].faults.crashes, 1u);
    EXPECT_GT(crashed.ranks[r].faults.recovery_seconds, 0.0);
    reexecuted += crashed.ranks[r].faults.tasks_reexecuted;
  }
  EXPECT_GT(reexecuted, 0u);
  // Deterministic: same plan, same costs.
  const sim::SimResult again = sim::simulate_bsp(machine, assignment, options);
  EXPECT_DOUBLE_EQ(crashed.runtime, again.runtime);
}

TEST(SimCrash, AsyncDeadRankWaitsForNobody) {
  wl::TaskModelParams params;
  params.n_reads = 2'000;
  params.n_tasks = 20'000;
  params.mean_length = 4'000;
  const auto workload = wl::generate_sim_workload(params, 2);
  const sim::MachineParams machine = sim::cori_knl(1);
  const sim::SimAssignment assignment = sim::assign(workload, machine.total_ranks());
  sim::SimOptions options;
  options.calibration.cells_per_second = 2e8;
  options.calibration.overhead_per_task = 3e-6;
  const sim::SimResult clean = sim::simulate_async(machine, assignment, options);
  options.faults.crashes = {{3, 1}};
  const sim::SimResult crashed = sim::simulate_async(machine, assignment, options);
  EXPECT_GT(crashed.runtime, 0.0);
  EXPECT_LT(crashed.ranks[3].compute, clean.ranks[3].compute);
  EXPECT_EQ(crashed.ranks[3].sync, 0.0);  // it never reaches the exit barrier
  std::uint64_t reexecuted = 0;
  for (std::size_t r = 0; r < crashed.ranks.size(); ++r) {
    if (r == 3) continue;
    EXPECT_EQ(crashed.ranks[r].faults.crashes, 1u);
    EXPECT_GT(crashed.ranks[r].faults.recovery_seconds, 0.0);
    reexecuted += crashed.ranks[r].faults.tasks_reexecuted;
  }
  EXPECT_GT(reexecuted, 0u);
}

TEST(SimSelfHealing, PartitionStallsOnlyTheRpcFabric) {
  wl::TaskModelParams params;
  params.n_reads = 2'000;
  params.n_tasks = 20'000;
  params.mean_length = 4'000;
  const auto workload = wl::generate_sim_workload(params, 3);
  const sim::MachineParams machine = sim::cori_knl(1);
  const sim::SimAssignment assignment = sim::assign(workload, machine.total_ranks());
  sim::SimOptions options;
  options.calibration.cells_per_second = 2e8;
  options.calibration.overhead_per_task = 3e-6;
  const sim::SimResult clean_bsp = sim::simulate_bsp(machine, assignment, options);
  const sim::SimResult clean_async = sim::simulate_async(machine, assignment, options);
  options.faults.partitions = {{2, 5, 100, 5'000}};  // longer than the lease
  // BSP collectives ride the mail slots: a cut RPC link costs nothing,
  // mirroring the runtime.
  const sim::SimResult cut_bsp = sim::simulate_bsp(machine, assignment, options);
  EXPECT_DOUBLE_EQ(cut_bsp.runtime, clean_bsp.runtime);
  EXPECT_EQ(cut_bsp.ranks[2].faults.suspected, 0u);
  // The async fabric stalls both endpoints for the window and books a
  // (false) suspicion on each.
  const sim::SimResult cut_async = sim::simulate_async(machine, assignment, options);
  EXPECT_GT(cut_async.runtime, clean_async.runtime);
  for (const std::size_t end : {std::size_t{2}, std::size_t{5}}) {
    EXPECT_EQ(cut_async.ranks[end].faults.suspected, 1u);
    EXPECT_EQ(cut_async.ranks[end].faults.false_suspicions, 1u);
    EXPECT_GT(cut_async.ranks[end].faults.recovery_seconds, 0.0);
  }
  // Deterministic: same plan, same costs.
  const sim::SimResult again = sim::simulate_async(machine, assignment, options);
  EXPECT_DOUBLE_EQ(cut_async.runtime, again.runtime);
}

TEST(SimSelfHealing, RestartRejoinAndCorruptionAreCosted) {
  wl::TaskModelParams params;
  params.n_reads = 2'000;
  params.n_tasks = 20'000;
  params.mean_length = 4'000;
  const auto workload = wl::generate_sim_workload(params, 4);
  const sim::MachineParams machine = sim::cori_knl(1);
  const sim::SimAssignment assignment = sim::assign(workload, machine.total_ranks());
  sim::SimOptions options;
  options.calibration.cells_per_second = 2e8;
  options.calibration.overhead_per_task = 3e-6;
  options.faults.crashes = {{3, 1}};
  const sim::SimResult crash_only = sim::simulate_async(machine, assignment, options);
  options.faults.restarts = {{3, 0}};
  const sim::SimResult rejoined = sim::simulate_async(machine, assignment, options);
  // The comeback rank books its rejoin; re-admission agreement costs
  // communication on every participant.
  EXPECT_EQ(rejoined.ranks[3].faults.rejoins, 1u);
  EXPECT_GT(rejoined.runtime, crash_only.runtime);
  // A restart without a matching crash never fires.
  sim::SimOptions no_crash;
  no_crash.calibration = options.calibration;
  no_crash.faults.restarts = {{3, 0}};
  const sim::SimResult idle = sim::simulate_async(machine, assignment, no_crash);
  EXPECT_EQ(idle.ranks[3].faults.rejoins, 0u);
  // Corruption: detection on the store (charged to rank 0), plus the
  // ancestor fallback when the corrupted write is a manifest rewrite
  // (kind 1, seq > 0).
  sim::SimOptions corrupt;
  corrupt.calibration = options.calibration;
  corrupt.faults.corrupts = {{0, 1, 1}};
  const sim::SimResult healed = sim::simulate_async(machine, assignment, corrupt);
  EXPECT_EQ(healed.ranks[0].faults.corrupt_records, 1u);
  EXPECT_EQ(healed.ranks[0].faults.fallback_checkpoints, 1u);
  // A corrupt log record (kind 2) truncates the log to its valid prefix:
  // detected, but never healed from an ancestor, whatever its seq.
  corrupt.faults.corrupts = {{0, 2, 1}};
  const sim::SimResult truncated = sim::simulate_async(machine, assignment, corrupt);
  EXPECT_EQ(truncated.ranks[0].faults.corrupt_records, 1u);
  EXPECT_EQ(truncated.ranks[0].faults.fallback_checkpoints, 0u);
  sim::SimOptions fault_free;
  fault_free.calibration = options.calibration;
  const sim::SimResult clean = sim::simulate_async(machine, assignment, fault_free);
  EXPECT_GT(healed.runtime, clean.runtime);
}

}  // namespace
