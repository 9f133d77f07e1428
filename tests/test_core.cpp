// Tests for the two many-to-many alignment engines: agreement with each
// other and with a serial reference, multi-round BSP under tight memory
// budgets, the comm-only mode, and cost calibration.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/async.hpp"
#include "core/bsp.hpp"
#include "core/calibrate.hpp"
#include "core/read_cache.hpp"
#include "kmer/bella_filter.hpp"
#include "pipeline/pipeline.hpp"
#include "rt/world.hpp"
#include "seq/sequence.hpp"
#include "stat/breakdown.hpp"
#include "util/rng.hpp"
#include "wl/presets.hpp"

using namespace gnb;
using namespace gnb::core;

namespace {

struct Fixture {
  wl::SampledDataset dataset;
  pipeline::PipelineConfig pipeline_config;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    wl::DatasetSpec spec = wl::tiny_spec();
    spec.genome.length = 12'000;
    spec.reads.coverage = 8;
    fx.dataset = wl::synthesize(spec, 21);
    const auto bounds = kmer::reliable_bounds(
        kmer::BellaParams{spec.reads.coverage, spec.reads.error_rate, spec.k, 1e-3});
    fx.pipeline_config.k = spec.k;
    fx.pipeline_config.lo = bounds.lo;
    fx.pipeline_config.hi = bounds.hi;
    return fx;
  }();
  return f;
}

std::vector<align::AlignmentRecord> sorted(std::vector<align::AlignmentRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
              return std::tie(x.read_a, x.read_b) < std::tie(y.read_a, y.read_b);
            });
  return records;
}

struct RunOutcome {
  std::vector<align::AlignmentRecord> accepted;
  std::uint64_t tasks_done = 0;
  std::uint64_t cells = 0;
  std::uint64_t rounds_max = 0;
  std::uint64_t messages = 0;
  std::uint64_t exchange_bytes = 0;
  /// Raw per-rank results in rank order (accepted NOT sorted) — the
  /// byte-identity surface for the compute_threads determinism contract.
  std::vector<EngineResult> per_rank;
};

RunOutcome run_engine(bool async_mode, std::size_t nranks, const EngineConfig& config,
                      const Fixture& f) {
  const pipeline::TaskSet tasks =
      pipeline::run_serial(f.dataset.reads, f.pipeline_config, nranks);
  rt::World world(nranks);
  std::vector<EngineResult> results(nranks);
  world.run([&](rt::Rank& rank) {
    results[rank.id()] =
        async_mode ? async_align(rank, f.dataset.reads, tasks.bounds,
                                 tasks.per_rank[rank.id()], config)
                   : bsp_align(rank, f.dataset.reads, tasks.bounds, tasks.per_rank[rank.id()],
                               config);
  });
  RunOutcome outcome;
  for (auto& result : results) {
    outcome.accepted.insert(outcome.accepted.end(), result.accepted.begin(),
                            result.accepted.end());
    outcome.tasks_done += result.tasks_done;
    outcome.cells += result.cells;
    outcome.messages += result.messages;
    outcome.exchange_bytes += result.exchange_bytes_received;
    outcome.rounds_max = std::max(outcome.rounds_max, result.rounds);
  }
  outcome.accepted = sorted(std::move(outcome.accepted));
  outcome.per_rank = std::move(results);
  return outcome;
}

/// Stable full-field ordering for per-rank record comparison when the
/// in-rank order is not reproducible across runs (async merges tasks in
/// reply-arrival order, which varies with thread scheduling even serially).
std::vector<align::AlignmentRecord> full_sorted(std::vector<align::AlignmentRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
              return std::tie(x.read_a, x.read_b, x.alignment.score, x.alignment.cells,
                              x.alignment.a_begin, x.alignment.b_begin) <
                     std::tie(y.read_a, y.read_b, y.alignment.score, y.alignment.cells,
                              y.alignment.a_begin, y.alignment.b_begin);
            });
  return records;
}

/// Field-by-field equality of per-rank engine results. For BSP the order
/// *within* each rank's accepted vector matters (submission order is
/// deterministic, and pooled merges must reproduce it exactly); for async
/// pass sort_within_rank = true, since reply arrival — and with it the
/// serial execution order itself — varies run to run.
void expect_identical_per_rank(const std::vector<EngineResult>& x,
                               const std::vector<EngineResult>& y,
                               bool sort_within_rank = false) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t r = 0; r < x.size(); ++r) {
    EXPECT_EQ(x[r].tasks_done, y[r].tasks_done) << "rank " << r;
    EXPECT_EQ(x[r].cells, y[r].cells) << "rank " << r;
    ASSERT_EQ(x[r].accepted.size(), y[r].accepted.size()) << "rank " << r;
    const std::vector<align::AlignmentRecord> xr =
        sort_within_rank ? full_sorted(x[r].accepted) : x[r].accepted;
    const std::vector<align::AlignmentRecord> yr =
        sort_within_rank ? full_sorted(y[r].accepted) : y[r].accepted;
    for (std::size_t i = 0; i < xr.size(); ++i) {
      const align::AlignmentRecord& a = xr[i];
      const align::AlignmentRecord& b = yr[i];
      EXPECT_EQ(a.read_a, b.read_a) << "rank " << r << " record " << i;
      EXPECT_EQ(a.read_b, b.read_b) << "rank " << r << " record " << i;
      EXPECT_EQ(a.alignment.score, b.alignment.score) << "rank " << r << " record " << i;
      EXPECT_EQ(a.alignment.cells, b.alignment.cells) << "rank " << r << " record " << i;
      EXPECT_EQ(a.alignment.a_begin, b.alignment.a_begin) << "rank " << r << " record " << i;
      EXPECT_EQ(a.alignment.a_end, b.alignment.a_end) << "rank " << r << " record " << i;
      EXPECT_EQ(a.alignment.b_begin, b.alignment.b_begin) << "rank " << r << " record " << i;
      EXPECT_EQ(a.alignment.b_end, b.alignment.b_end) << "rank " << r << " record " << i;
      EXPECT_EQ(a.alignment.b_reversed, b.alignment.b_reversed)
          << "rank " << r << " record " << i;
    }
  }
}

/// Serial reference: run every task directly with the kernel.
std::vector<align::AlignmentRecord> serial_reference(const EngineConfig& config,
                                                     const Fixture& f) {
  const pipeline::TaskSet tasks =
      pipeline::run_serial(f.dataset.reads, f.pipeline_config, 1);
  std::vector<align::AlignmentRecord> accepted;
  for (const auto& task : tasks.per_rank[0]) {
    const align::Alignment alignment =
        align::xdrop_align(f.dataset.reads.get(task.a).sequence,
                           f.dataset.reads.get(task.b).sequence, task.seed, config.xdrop);
    if (config.filter.accepts(alignment))
      accepted.push_back(align::AlignmentRecord{task.a, task.b, alignment});
  }
  return sorted(std::move(accepted));
}

void expect_same_records(const std::vector<align::AlignmentRecord>& x,
                         const std::vector<align::AlignmentRecord>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i].read_a, y[i].read_a);
    EXPECT_EQ(x[i].read_b, y[i].read_b);
    EXPECT_EQ(x[i].alignment.score, y[i].alignment.score);
    EXPECT_EQ(x[i].alignment.a_begin, y[i].alignment.a_begin);
    EXPECT_EQ(x[i].alignment.b_end, y[i].alignment.b_end);
  }
}

EngineConfig default_config() {
  EngineConfig config;
  config.filter = align::AlignmentFilter{50, 100};
  return config;
}

}  // namespace

class EngineAgreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineAgreement, BspEqualsAsyncEqualsSerial) {
  const EngineConfig config = default_config();
  const auto bsp = run_engine(false, GetParam(), config, fixture());
  const auto async = run_engine(true, GetParam(), config, fixture());
  const auto reference = serial_reference(config, fixture());
  expect_same_records(bsp.accepted, reference);
  expect_same_records(async.accepted, reference);
  EXPECT_EQ(bsp.tasks_done, async.tasks_done);
  EXPECT_EQ(bsp.cells, async.cells);
}

INSTANTIATE_TEST_SUITE_P(Ranks, EngineAgreement, ::testing::Values(1, 2, 3, 5, 8));

TEST(Engines, TightBudgetForcesMultipleRoundsSameResult) {
  EngineConfig tight = default_config();
  tight.proto.bsp_round_budget = 4'096;  // a few reads per round
  const auto bsp = run_engine(false, 4, tight, fixture());
  EXPECT_GT(bsp.rounds_max, 1u);
  const auto reference = serial_reference(default_config(), fixture());
  expect_same_records(bsp.accepted, reference);
}

TEST(Engines, GenerousBudgetSingleRound) {
  EngineConfig config = default_config();
  config.proto.bsp_round_budget = 1ull << 30;
  const auto bsp = run_engine(false, 4, config, fixture());
  EXPECT_EQ(bsp.rounds_max, 1u);
}

TEST(Engines, CommOnlyModeSkipsAlignment) {
  EngineConfig config = default_config();
  config.skip_compute = true;
  const auto bsp = run_engine(false, 3, config, fixture());
  const auto async = run_engine(true, 3, config, fixture());
  EXPECT_TRUE(bsp.accepted.empty());
  EXPECT_TRUE(async.accepted.empty());
  EXPECT_EQ(bsp.cells, 0u);
  EXPECT_EQ(async.cells, 0u);
  // ...but everything else still happened: tasks traversed, bytes moved.
  EXPECT_GT(bsp.tasks_done, 0u);
  EXPECT_EQ(bsp.tasks_done, async.tasks_done);
  EXPECT_GT(bsp.exchange_bytes, 0u);
  EXPECT_GT(async.exchange_bytes, 0u);
}

TEST(Engines, AsyncWindowOneStillCorrect) {
  EngineConfig config = default_config();
  config.proto.async_window = 1;
  const auto async = run_engine(true, 4, config, fixture());
  const auto reference = serial_reference(default_config(), fixture());
  expect_same_records(async.accepted, reference);
}

TEST(Engines, AsyncBatchedPullsStillCorrect) {
  EngineConfig config = default_config();
  config.proto.async_batch = 7;  // exercise multi-read request payloads
  const auto batched = run_engine(true, 4, config, fixture());
  const auto reference = run_engine(true, 4, default_config(), fixture());
  expect_same_records(batched.accepted, reference.accepted);
  // Batching shrinks message count but moves the same read payload.
  EXPECT_LT(batched.messages, reference.messages);
  EXPECT_EQ(batched.exchange_bytes, reference.exchange_bytes);
}

TEST(Engines, StricterFilterAcceptsSubset) {
  EngineConfig loose = default_config();
  EngineConfig strict = default_config();
  strict.filter = align::AlignmentFilter{200, 400};
  const auto all = run_engine(false, 2, loose, fixture());
  const auto few = run_engine(false, 2, strict, fixture());
  EXPECT_LT(few.accepted.size(), all.accepted.size());
  for (const auto& record : few.accepted) {
    EXPECT_GE(record.alignment.score, 200);
    EXPECT_GE(record.alignment.overlap_length(), 400u);
  }
}

TEST(Engines, TasksDoneMatchesTaskCount) {
  const auto tasks = pipeline::run_serial(fixture().dataset.reads,
                                          fixture().pipeline_config, 3);
  const auto bsp = run_engine(false, 3, default_config(), fixture());
  EXPECT_EQ(bsp.tasks_done, tasks.total_tasks());
}

TEST(Engines, AsyncPullsEachRemoteReadOnce) {
  // messages == number of distinct (rank, remote read) pairs <= tasks.
  const auto async = run_engine(true, 4, default_config(), fixture());
  const auto tasks = pipeline::run_serial(fixture().dataset.reads,
                                          fixture().pipeline_config, 4);
  EXPECT_LE(async.messages, tasks.total_tasks());
  EXPECT_GT(async.messages, 0u);
}

TEST(Engines, ExchangeBytesMatchBetweenModes) {
  // Async replies carry exactly the reads BSP would ship (each remote read
  // once per needing rank), so total exchanged payload must match.
  const auto bsp = run_engine(false, 4, default_config(), fixture());
  const auto async = run_engine(true, 4, default_config(), fixture());
  EXPECT_EQ(bsp.exchange_bytes, async.exchange_bytes);
}

TEST(Engines, DeterministicAcrossRuns) {
  const auto first = run_engine(false, 4, default_config(), fixture());
  const auto second = run_engine(false, 4, default_config(), fixture());
  expect_same_records(first.accepted, second.accepted);
}

TEST(LocalRead, GuardsAgainstRemoteAccess) {
  const auto& f = fixture();
  const auto bounds = pipeline::compute_bounds(f.dataset.reads, 2);
  // Rank 0 asking for a read owned by rank 1 must abort.
  const seq::ReadId foreign = bounds[1];
  EXPECT_DEATH((void)local_read(f.dataset.reads, bounds, 0, foreign), "");
}

TEST(Calibration, ProducesPlausibleRates) {
  const CostCalibration calibration = calibrate_cost_model(1, 0.05);
  EXPECT_GT(calibration.cells_per_second, 1e6);
  EXPECT_LT(calibration.cells_per_second, 1e11);
  EXPECT_GT(calibration.overhead_per_task, 0);
  EXPECT_LT(calibration.overhead_per_task, 1e-2);
}

TEST(Calibration, DeterministicInputsStableRate) {
  const CostCalibration a = calibrate_cost_model(3, 0.05);
  const CostCalibration b = calibrate_cost_model(3, 0.05);
  // Timing varies, but the measured rate should be the same order.
  EXPECT_LT(std::abs(std::log10(a.cells_per_second / b.cells_per_second)), 0.7);
}

// ---------- ReadCache ----------

namespace {

seq::Read make_read(seq::ReadId id, std::size_t length, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> codes(length);
  for (auto& code : codes) code = static_cast<std::uint8_t>(rng.below(4));
  seq::Read read;
  read.id = id;
  read.name = std::string("r").append(std::to_string(id));
  read.sequence = seq::Sequence::from_codes(codes);
  return read;
}

}  // namespace

TEST(ReadCache, HitAndMissAccounting) {
  ReadCache cache(/*max_bytes=*/0);  // unbounded
  const seq::Read read = make_read(0, 120, 91);
  const ReadCache::Codes first = cache.get(read, false);
  EXPECT_EQ(*first, seq::oriented_codes(read.sequence, false));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  const ReadCache::Codes second = cache.get(read, false);
  EXPECT_EQ(first.get(), second.get());  // the same buffer, not a re-decode
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().bytes, 120u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ReadCache, OrientationsAreDistinctEntries) {
  ReadCache cache(0);
  const seq::Read read = make_read(3, 64, 92);
  const ReadCache::Codes fwd = cache.get(read, false);
  const ReadCache::Codes rc = cache.get(read, true);
  EXPECT_EQ(cache.stats().misses, 2u);  // each orientation decodes once
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_EQ(*rc, seq::oriented_codes(read.sequence, true));
  EXPECT_EQ(*rc, read.sequence.reverse_complement().unpack());
  EXPECT_NE(*fwd, *rc);
  EXPECT_EQ(cache.get(read, true).get(), rc.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ReadCache, ByteBoundEvictsLeastRecentlyUsed) {
  ReadCache cache(/*max_bytes=*/250);
  const seq::Read r0 = make_read(0, 100, 93);
  const seq::Read r1 = make_read(1, 100, 94);
  const seq::Read r2 = make_read(2, 100, 95);
  (void)cache.get(r0, false);
  (void)cache.get(r1, false);
  EXPECT_EQ(cache.stats().bytes, 200u);
  (void)cache.get(r0, false);  // touch r0: r1 becomes the LRU victim
  (void)cache.get(r2, false);  // 300 > 250: evict r1
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytes, 250u);
  EXPECT_EQ(cache.entries(), 2u);
  const std::uint64_t hits_before = cache.stats().hits;
  (void)cache.get(r0, false);  // survived
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  (void)cache.get(r1, false);  // evicted: decodes again
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().peak_bytes, 300u);  // watermark before the evict
}

TEST(ReadCache, EntryLargerThanBudgetStillServed) {
  // The bound is soft by one entry: the just-inserted entry is never the
  // eviction victim, so a read longer than the whole budget still caches.
  ReadCache cache(/*max_bytes=*/50);
  const seq::Read big = make_read(7, 200, 96);
  const ReadCache::Codes codes = cache.get(big, false);
  EXPECT_EQ(codes->size(), 200u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.stats().bytes, 200u);
  const seq::Read next = make_read(8, 200, 97);
  (void)cache.get(next, false);  // displaces the oversized entry
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.entries(), 1u);
}

TEST(ReadCache, EvictedHandleOutlivesEntry) {
  // An in-flight AlignPool slot holds the shared_ptr; eviction must not
  // invalidate it.
  ReadCache cache(/*max_bytes=*/100);
  const seq::Read r0 = make_read(0, 100, 98);
  const seq::Read r1 = make_read(1, 100, 99);
  const ReadCache::Codes pinned = cache.get(r0, false);
  const std::vector<std::uint8_t> expected = *pinned;
  (void)cache.get(r1, false);  // evicts r0's entry
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(*pinned, expected);  // handle still alive and intact
}

TEST(ReadCache, ClearKeepsCumulativeCounters) {
  ReadCache cache(0);
  const seq::Read read = make_read(0, 50, 100);
  (void)cache.get(read, false);
  (void)cache.get(read, false);
  cache.clear();
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);    // cumulative
  EXPECT_EQ(cache.stats().misses, 1u);  // cumulative
  EXPECT_EQ(cache.stats().evictions, 0u);  // clear() is not an eviction
  (void)cache.get(read, false);
  EXPECT_EQ(cache.stats().misses, 2u);  // re-decodes after clear
}

// ---------- ComputeCounters ----------

TEST(ComputeCounters, MergeSumsCountersAndMaxesGauges) {
  stat::ComputeCounters a;
  a.threads = 2;
  a.cache_hits = 10;
  a.cache_misses = 4;
  a.cache_evictions = 1;
  a.cache_peak_bytes = 100;
  a.pool_tasks = 20;
  a.pool_batches = 3;
  stat::ComputeCounters b;
  b.threads = 4;
  b.cache_hits = 5;
  b.cache_misses = 6;
  b.cache_peak_bytes = 70;
  b.pool_tasks = 7;
  b.pool_batches = 2;
  a.merge(b);
  EXPECT_EQ(a.threads, 4u);            // per-rank gauge: max
  EXPECT_EQ(a.cache_peak_bytes, 100u); // per-rank gauge: max
  EXPECT_EQ(a.cache_hits, 15u);        // counters: sum
  EXPECT_EQ(a.cache_misses, 10u);
  EXPECT_EQ(a.cache_evictions, 1u);
  EXPECT_EQ(a.pool_tasks, 27u);
  EXPECT_EQ(a.pool_batches, 5u);
  EXPECT_DOUBLE_EQ(a.hit_rate(), 15.0 / 25.0);
  EXPECT_DOUBLE_EQ(stat::ComputeCounters{}.hit_rate(), 0.0);
}

// ---------- compute_threads: the pooled engines ----------

class ThreadedEngines : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ThreadedEngines, ByteIdenticalToSerialBothEngines) {
  EngineConfig serial = default_config();
  serial.proto.compute_threads = 1;  // pin: GNB_COMPUTE_THREADS may be set
  EngineConfig pooled = default_config();
  pooled.proto.compute_threads = GetParam();
  for (const bool async_mode : {false, true}) {
    const auto base = run_engine(async_mode, 3, serial, fixture());
    const auto threaded = run_engine(async_mode, 3, pooled, fixture());
    expect_identical_per_rank(base.per_rank, threaded.per_rank,
                              /*sort_within_rank=*/async_mode);
    EXPECT_EQ(threaded.messages, base.messages);
    EXPECT_EQ(threaded.exchange_bytes, base.exchange_bytes);
    EXPECT_EQ(threaded.rounds_max, base.rounds_max);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadedEngines, ::testing::Values(2, 4));

TEST(ThreadedEngines, PoolAndCacheCountersAccount) {
  EngineConfig pooled = default_config();
  pooled.proto.compute_threads = 4;
  const auto run = run_engine(false, 2, pooled, fixture());
  std::uint64_t pool_tasks = 0, lookups = 0, tasks = 0;
  for (const EngineResult& r : run.per_rank) {
    EXPECT_EQ(r.compute.threads, 4u);
    pool_tasks += r.compute.pool_tasks;
    lookups += r.compute.cache_hits + r.compute.cache_misses;
    tasks += r.tasks_done;
    EXPECT_GT(r.compute.pool_batches, 0u);
  }
  EXPECT_EQ(pool_tasks, tasks);    // every kernel ran on a worker
  EXPECT_EQ(lookups, 2 * tasks);   // two cache lookups per task
  EXPECT_GT(tasks, 0u);
}

TEST(ThreadedEngines, KernelBatchesFillAcrossReads) {
  // The runner packs consecutive reads' tasks into shared kernel batches:
  // every batch is full except at a flush point — the end of a BSP round
  // and the final drain. One batch per pulled read would exceed the bound.
  for (const bool async_mode : {false, true}) {
    for (const std::size_t threads : {1u, 2u}) {
      for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{4'096}}) {
        EngineConfig config = default_config();
        config.proto.compute_threads = threads;
        config.proto.bsp_round_budget = budget;  // 0 = derived; 4096 = many rounds
        const auto run = run_engine(async_mode, 4, config, fixture());
        for (std::size_t r = 0; r < run.per_rank.size(); ++r) {
          const EngineResult& res = run.per_rank[r];
          const std::uint64_t full = (res.tasks_done + TaskRunner::kSlotsPerBatch - 1) /
                                     TaskRunner::kSlotsPerBatch;
          const std::uint64_t flush_points = async_mode ? 1 : res.rounds + 1;
          EXPECT_GT(res.compute.kernel_batches, 0u);
          EXPECT_LE(res.compute.kernel_batches, full + flush_points)
              << (async_mode ? "async" : "bsp") << " threads=" << threads
              << " budget=" << budget << " rank " << r << ": " << res.tasks_done
              << " tasks, " << res.rounds << " rounds";
        }
      }
    }
  }
}

TEST(ThreadedEngines, SerialModeNeverTouchesThePool) {
  EngineConfig config = default_config();
  config.proto.compute_threads = 1;  // pin: GNB_COMPUTE_THREADS may be set
  const auto run = run_engine(true, 2, config, fixture());
  for (const EngineResult& r : run.per_rank) {
    EXPECT_EQ(r.compute.threads, 1u);
    EXPECT_EQ(r.compute.pool_tasks, 0u);
    EXPECT_EQ(r.compute.pool_batches, 0u);
    // The cache still dedupes decodes on the inline path.
    EXPECT_EQ(r.compute.cache_hits + r.compute.cache_misses, 2 * r.tasks_done);
  }
}

TEST(ThreadedEngines, SkipComputeForcesInlineExecution) {
  EngineConfig config = default_config();
  config.skip_compute = true;
  config.proto.compute_threads = 4;  // ignored: no kernels to offload
  const auto run = run_engine(false, 2, config, fixture());
  for (const EngineResult& r : run.per_rank) {
    EXPECT_EQ(r.compute.threads, 1u);
    EXPECT_EQ(r.compute.pool_tasks, 0u);
  }
}

TEST(ThreadedEngines, CacheBudgetZeroMeansUnbounded) {
  EngineConfig config = default_config();
  config.proto.read_cache_bytes = 0;
  const auto unbounded = run_engine(false, 2, config, fixture());
  for (const EngineResult& r : unbounded.per_rank) EXPECT_EQ(r.compute.cache_evictions, 0u);
  // A starved cache still produces identical records — only more decodes.
  config.proto.read_cache_bytes = 1;  // every insert evicts the previous
  const auto starved = run_engine(false, 2, config, fixture());
  expect_identical_per_rank(unbounded.per_rank, starved.per_rank);
  std::uint64_t evictions = 0;
  for (const EngineResult& r : starved.per_rank) evictions += r.compute.cache_evictions;
  EXPECT_GT(evictions, 0u);
}
