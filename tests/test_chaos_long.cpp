// The long self-healing matrix (ctest label: chaos-long): partitions,
// rank restarts, and write-time checkpoint corruption — alone and
// together — crossed with both overlap engines and {2, 4, 8} ranks.
// Every cell must produce an alignment set byte-identical to the
// fault-free run: the self-healing runtime may change when and where work
// happens, never what is computed. This suite is deliberately heavy (it
// runs dozens of full engine executions); CI schedules it on the nightly
// chaos job rather than the per-push gate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/async.hpp"
#include "core/bsp.hpp"
#include "pipeline/pipeline.hpp"
#include "rt/fault.hpp"
#include "rt/world.hpp"
#include "stat/breakdown.hpp"
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
  std::vector<align::AlignmentRecord> records;
  stat::FaultCounters faults;
};

RunOutcome run_engine(bool async_mode, std::size_t ranks, const Workload& w,
                      const rt::FaultPlan& plan = {}) {
  const core::EngineConfig config;
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
  for (const auto& result : results)
    outcome.records.insert(outcome.records.end(), result.accepted.begin(),
                           result.accepted.end());
  for (const stat::Breakdown& b : world.breakdowns()) outcome.faults.merge(b.faults);
  std::sort(outcome.records.begin(), outcome.records.end(),
            [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
              return std::tie(x.read_a, x.read_b, x.alignment.score) <
                     std::tie(y.read_a, y.read_b, y.alignment.score);
            });
  return outcome;
}

void expect_identical(const RunOutcome& chaos, const RunOutcome& clean) {
  ASSERT_EQ(chaos.records.size(), clean.records.size());
  for (std::size_t i = 0; i < clean.records.size(); ++i) {
    const align::AlignmentRecord& a = chaos.records[i];
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
  for (std::size_t i = 1; i < chaos.records.size(); ++i)
    EXPECT_FALSE(chaos.records[i - 1].read_a == chaos.records[i].read_a &&
                 chaos.records[i - 1].read_b == chaos.records[i].read_b)
        << "duplicate emission of pair (" << chaos.records[i].read_a << ", "
        << chaos.records[i].read_b << ")";
}

/// engine (async?) x rank count.
class SelfHealingMatrix
    : public ::testing::TestWithParam<std::tuple<bool, std::size_t>> {
 protected:
  void run_cell(const std::string& spec) {
    const auto [async_mode, ranks] = GetParam();
    const Workload w = make_workload(ranks);
    const RunOutcome clean = run_engine(async_mode, ranks, w);
    ASSERT_FALSE(clean.records.empty());
    SCOPED_TRACE((async_mode ? "async" : "bsp") + std::string(" ranks=") +
                 std::to_string(ranks) + " faults=" + spec);
    const RunOutcome chaos =
        run_engine(async_mode, ranks, w, rt::FaultPlan::parse(spec));
    expect_identical(chaos, clean);
  }
};

}  // namespace

TEST_P(SelfHealingMatrix, PartitionWindow) {
  run_cell("seed=101,partition@0|1:64:1500");
}

TEST_P(SelfHealingMatrix, CrashThenRestart) {
  run_cell("seed=102,crash@1:2,restart@1:0");
}

TEST_P(SelfHealingMatrix, CrashWithCorruptLog) {
  run_cell("seed=103,crash@1:4,corrupt@1:2:0");
}

TEST_P(SelfHealingMatrix, FullStackCombined) {
  run_cell("seed=104,crash@1:2,restart@1:0,partition@0|1:64:1500,corrupt@1:1:1");
}

INSTANTIATE_TEST_SUITE_P(
    EngineRanks, SelfHealingMatrix,
    ::testing::Combine(::testing::Bool(), ::testing::Values(2, 4, 8)),
    [](const ::testing::TestParamInfo<SelfHealingMatrix::ParamType>& param_info) {
      return std::string(std::get<0>(param_info.param) ? "Async" : "Bsp") + "R" +
             std::to_string(std::get<1>(param_info.param));
    });
