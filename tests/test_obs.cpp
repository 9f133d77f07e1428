// Tests for the observability layer (src/obs): span tracer semantics
// (nesting, ring capacity, thread safety), Chrome-trace JSON schema
// validation, sim-vs-real span-name parity on one small workload,
// determinism of the event sequence across identically-seeded runs, the
// phase breakdown as a view of the trace (equal to the perf report's
// attribution, compute.batch spans covering every task, the runtime a wall
// extent rather than thread-seconds), the metrics
// registry, and the FaultCounters descriptor-table export.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/async.hpp"
#include "core/bsp.hpp"
#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "pipeline/distributed.hpp"
#include "pipeline/pipeline.hpp"
#include "proto/config.hpp"
#include "rt/fault.hpp"
#include "rt/world.hpp"
#include "sim/assignment.hpp"
#include "sim/machine.hpp"
#include "sim/perf_model.hpp"
#include "stat/breakdown.hpp"
#include "util/timer.hpp"
#include "wl/presets.hpp"

using namespace gnb;

namespace {

// Everything up to the metrics-registry tests records spans through the
// GNB_* macros, which GNB_TRACE=OFF compiles away.
#if GNB_TRACE_ENABLED

/// A comparable, timestamp-free digest of one event.
using EventKey = std::tuple<std::string, int, std::string, std::uint64_t, std::uint64_t>;

EventKey key_of(const obs::TraceEvent& e) {
  return {e.name, static_cast<int>(e.phase), e.key0 != nullptr ? e.key0 : "", e.val0, e.id};
}

/// Snapshot every track of the global tracer as (pid, tid, events) before
/// disable() invalidates the buffers.
struct TrackSnapshot {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::vector<obs::TraceEvent> events;
};

std::vector<TrackSnapshot> snapshot_tracks() {
  std::vector<TrackSnapshot> tracks;
  for (const obs::TraceBuffer* buf : obs::Tracer::instance().buffers()) {
    TrackSnapshot t;
    t.pid = buf->pid();
    t.tid = buf->tid();
    t.events.assign(buf->events().begin(), buf->events().end());
    tracks.push_back(std::move(t));
  }
  return tracks;
}

/// Span-taxonomy of a snapshot: names of all duration-like events (B/E/X
/// spans and b/e async ops); instants and counters are excluded, since
/// fault instants only fire under injection.
std::set<std::string> span_names(const std::vector<TrackSnapshot>& tracks) {
  std::set<std::string> names;
  for (const TrackSnapshot& t : tracks) {
    for (const obs::TraceEvent& e : t.events) {
      switch (e.phase) {
        case obs::TraceEvent::Phase::kBegin:
        case obs::TraceEvent::Phase::kEnd:
        case obs::TraceEvent::Phase::kComplete:
        case obs::TraceEvent::Phase::kAsyncBegin:
        case obs::TraceEvent::Phase::kAsyncEnd:
          names.insert(e.name);
          break;
        default:
          break;
      }
    }
  }
  return names;
}

// ---------- real-run harness (tiny dataset, 4 ranks) ----------

struct RealRun {
  std::vector<TrackSnapshot> tracks;
  std::string json;
};

const wl::SampledDataset& tiny_dataset() {
  static const wl::SampledDataset dataset = [] {
    wl::DatasetSpec spec = wl::tiny_spec();
    spec.genome.length = 12'000;
    spec.reads.coverage = 8;
    return wl::synthesize(spec, 21);
  }();
  return dataset;
}

RealRun run_real(bool async_mode, std::size_t nranks = 4,
                 proto::WireCompression wire = proto::wire_compression_from_env()) {
  const wl::SampledDataset& dataset = tiny_dataset();
  pipeline::PipelineConfig config;
  config.k = wl::tiny_spec().k;
  const pipeline::TaskSet tasks = pipeline::run_serial(dataset.reads, config, nranks);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  rt::World world(nranks);
  core::EngineConfig engine_config;
  engine_config.proto.wire_compression = wire;
  world.run([&](rt::Rank& rank) {
    if (async_mode) {
      core::async_align(rank, dataset.reads, tasks.bounds, tasks.per_rank[rank.id()],
                        engine_config);
    } else {
      core::bsp_align(rank, dataset.reads, tasks.bounds, tasks.per_rank[rank.id()],
                      engine_config);
    }
  });
  RealRun run;
  run.tracks = snapshot_tracks();
  std::ostringstream out;
  tracer.write_json(out);
  run.json = out.str();
  tracer.disable();
  return run;
}

// ---------- simulated-run harness (tiny model workload) ----------

std::vector<TrackSnapshot> run_sim(bool async_mode, std::uint64_t seed = 42) {
  const wl::SimWorkload workload = wl::model_workload(wl::tiny_spec(), 1.0, seed);
  sim::MachineParams machine = sim::cori_knl(4);
  sim::scale_slice(machine, 16.0);  // 4 cores/node -> 16 virtual ranks
  const sim::SimAssignment assignment = sim::assign(workload, machine.total_ranks());
  sim::SimOptions options;
  options.trace = true;

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  if (async_mode) {
    sim::simulate_async(machine, assignment, options);
  } else {
    sim::simulate_bsp(machine, assignment, options);
  }
  auto tracks = snapshot_tracks();
  tracer.disable();
  return tracks;
}

// ---------- span tracer semantics ----------

TEST(Tracer, SpanMacroNestsBeginEnd) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  obs::TraceBuffer* buf = tracer.buffer(0, 0, "test", "main");
  ASSERT_NE(buf, nullptr);
  obs::Tracer::bind(buf);
  {
    GNB_SPAN("outer", "a", 1);
    {
      GNB_SPAN("inner");
      GNB_INSTANT("tick", "n", 7);
    }
  }
  obs::Tracer::bind(nullptr);
  const auto events = buf->events();
  ASSERT_EQ(events.size(), 5u);
  using Phase = obs::TraceEvent::Phase;
  EXPECT_EQ(events[0].name, std::string("outer"));
  EXPECT_EQ(events[0].phase, Phase::kBegin);
  EXPECT_EQ(events[0].val0, 1u);
  EXPECT_EQ(events[1].name, std::string("inner"));
  EXPECT_EQ(events[1].phase, Phase::kBegin);
  EXPECT_EQ(events[2].name, std::string("tick"));
  EXPECT_EQ(events[2].phase, Phase::kInstant);
  EXPECT_EQ(events[3].name, std::string("inner"));
  EXPECT_EQ(events[3].phase, Phase::kEnd);
  EXPECT_EQ(events[4].name, std::string("outer"));
  EXPECT_EQ(events[4].phase, Phase::kEnd);
  // Timestamps are monotone within one single-writer track.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  tracer.disable();
}

TEST(Tracer, MacrosAreNoopsWhenUnbound) {
  // No binding (and tracer disabled): the macros must not crash or record.
  GNB_SPAN("orphan");
  GNB_INSTANT("orphan.instant");
  GNB_COUNTER("orphan.counter", 3);
  GNB_ASYNC_BEGIN("orphan.async", 1);
  GNB_ASYNC_END("orphan.async", 1);
  EXPECT_EQ(obs::Tracer::current(), nullptr);
}

TEST(Tracer, RingDropsNewestPastCapacity) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(/*buffer_capacity=*/8);
  obs::TraceBuffer* buf = tracer.buffer(0, 0, "test", "main");
  ASSERT_NE(buf, nullptr);
  for (int i = 0; i < 20; ++i) buf->instant("e");
  EXPECT_EQ(buf->events().size(), 8u);
  EXPECT_EQ(buf->dropped(), 12u);
  EXPECT_EQ(tracer.dropped(), 12u);
  // The drop count is exported so truncation is never silent.
  std::ostringstream out;
  tracer.write_json(out);
  EXPECT_NE(out.str().find("\"dropped_events\":\"12\""), std::string::npos);
  tracer.disable();
}

TEST(Tracer, ConcurrentWritersOnDistinctTracks) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  constexpr int kThreads = 8;
  constexpr int kEvents = 1000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([t] {
      obs::TraceBuffer* buf = obs::Tracer::instance().buffer(
          static_cast<std::uint32_t>(t), 0, "worker", "main");
      ASSERT_NE(buf, nullptr);
      obs::Tracer::bind(buf);
      for (int i = 0; i < kEvents; ++i) {
        GNB_SPAN("work", "i", static_cast<std::uint64_t>(i));
        GNB_COUNTER("progress", static_cast<std::uint64_t>(i));
      }
      obs::Tracer::bind(nullptr);
    });
  for (auto& thread : threads) thread.join();
  const auto buffers = tracer.buffers();
  ASSERT_EQ(buffers.size(), static_cast<std::size_t>(kThreads));
  for (const obs::TraceBuffer* buf : buffers)
    EXPECT_EQ(buf->events().size() + buf->dropped(), 3u * kEvents);
  tracer.disable();
}

TEST(Tracer, DisabledTracerHandsOutNoBuffers) {
  obs::Tracer& tracer = obs::Tracer::instance();
  ASSERT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.buffer(0, 0, "p", "t"), nullptr);
  EXPECT_TRUE(tracer.buffers().empty());
}

// ---------- trace-JSON schema ----------

TEST(TraceJson, RealRunValidatesAgainstSchema) {
  for (const bool async_mode : {false, true}) {
    const RealRun run = run_real(async_mode);
    std::string error;
    EXPECT_TRUE(obs::json::validate_trace(run.json, &error))
        << (async_mode ? "async" : "bsp") << ": " << error;
  }
}

TEST(TraceJson, SimRunValidatesAgainstSchema) {
  const wl::SimWorkload workload = wl::model_workload(wl::tiny_spec(), 1.0, 42);
  sim::MachineParams machine = sim::cori_knl(4);
  sim::scale_slice(machine, 16.0);
  const sim::SimAssignment assignment = sim::assign(workload, machine.total_ranks());
  sim::SimOptions options;
  options.trace = true;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  sim::simulate_bsp(machine, assignment, options);
  sim::simulate_async(machine, assignment, options);
  std::ostringstream out;
  tracer.write_json(out);
  tracer.disable();
  std::string error;
  EXPECT_TRUE(obs::json::validate_trace(out.str(), &error)) << error;
  // Virtual tracks are labelled with their clock domain.
  EXPECT_NE(out.str().find("[virtual]"), std::string::npos);
}

// ---------- sim-vs-real span-name parity ----------

TEST(Parity, BspSpanTaxonomyMatchesSimulator) {
  const std::set<std::string> real = span_names(run_real(/*async_mode=*/false).tracks);
  const std::set<std::string> sim = span_names(run_sim(/*async_mode=*/false));
  EXPECT_EQ(real, sim);
  EXPECT_TRUE(real.count(obs::span::kBspAlign));
  EXPECT_TRUE(real.count(obs::span::kBspRound));
  EXPECT_TRUE(real.count(obs::span::kCollAlltoallv));
}

TEST(Parity, AsyncSpanTaxonomyMatchesSimulator) {
  const std::set<std::string> real = span_names(run_real(/*async_mode=*/true).tracks);
  const std::set<std::string> sim = span_names(run_sim(/*async_mode=*/true));
  EXPECT_EQ(real, sim);
  EXPECT_TRUE(real.count(obs::span::kAsyncAlign));
  EXPECT_TRUE(real.count(obs::span::kAsyncPulls));
  EXPECT_TRUE(real.count(obs::span::kRpcPull));
}

// ---------- determinism across identically-seeded runs ----------

TEST(Determinism, RealBspEventSequenceIsSeedStable) {
  // Fault-free *serial* BSP is deterministic per rank: two identical runs
  // must produce identical per-track (name, phase, args) sequences; only
  // the wall-clock timestamps may differ. Serial only: with a worker pool
  // the mid-round counter args (e.g. align.cells) reflect however many
  // batches merged by round end, which is timing-dependent — so the env
  // override is pinned off here.
  setenv("GNB_COMPUTE_THREADS", "1", 1);
  const RealRun a = run_real(/*async_mode=*/false);
  const RealRun b = run_real(/*async_mode=*/false);
  unsetenv("GNB_COMPUTE_THREADS");
  ASSERT_EQ(a.tracks.size(), b.tracks.size());
  for (std::size_t t = 0; t < a.tracks.size(); ++t) {
    ASSERT_EQ(a.tracks[t].pid, b.tracks[t].pid);
    ASSERT_EQ(a.tracks[t].events.size(), b.tracks[t].events.size())
        << "track pid=" << a.tracks[t].pid;
    for (std::size_t i = 0; i < a.tracks[t].events.size(); ++i)
      EXPECT_EQ(key_of(a.tracks[t].events[i]), key_of(b.tracks[t].events[i]))
          << "track pid=" << a.tracks[t].pid << " event " << i;
  }
}

TEST(Determinism, SimTraceIsByteStableIncludingVirtualTime) {
  // The simulator's clock is virtual, so even the timestamps must agree.
  const auto a = run_sim(/*async_mode=*/true, 42);
  const auto b = run_sim(/*async_mode=*/true, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].events.size(), b[t].events.size());
    for (std::size_t i = 0; i < a[t].events.size(); ++i) {
      EXPECT_EQ(key_of(a[t].events[i]), key_of(b[t].events[i]));
      EXPECT_EQ(a[t].events[i].ts_ns, b[t].events[i].ts_ns);
      EXPECT_EQ(a[t].events[i].dur_ns, b[t].events[i].dur_ns);
    }
  }
}

TEST(Determinism, JsonExportIsGloballyOrderedAndStable) {
  // write_json must emit one deterministic document for a fixed buffer
  // state: all metadata first, then every event across all tracks in one
  // globally stable (ts, pid, tid) order — so `diff` of two exports of
  // byte-identical runs is exactly empty, and re-exporting the same epoch
  // twice is byte-identical.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  // Two tracks created in reverse pid order, with interleaved virtual
  // timestamps, exercise the cross-buffer merge.
  obs::TraceBuffer* b1 = tracer.buffer(1, 0, "rank 1 [virtual]", "core 0", "virtual");
  obs::TraceBuffer* b0 = tracer.buffer(0, 0, "rank 0 [virtual]", "core 0", "virtual");
  ASSERT_NE(b0, nullptr);
  ASSERT_NE(b1, nullptr);
  auto push = [](obs::TraceBuffer* buf, obs::TraceEvent::Phase ph, std::int64_t ts) {
    obs::TraceEvent e;
    e.name = "span";
    e.phase = ph;
    e.ts_ns = ts;
    buf->push(e);
  };
  using Phase = obs::TraceEvent::Phase;
  push(b1, Phase::kBegin, 500);   // arrives first in file order...
  push(b0, Phase::kBegin, 100);   // ...but must sort first in the export
  push(b0, Phase::kEnd, 900);
  push(b1, Phase::kEnd, 900);     // same-ts tie: pid 0 before pid 1
  std::ostringstream first, second;
  tracer.write_json(first);
  tracer.write_json(second);
  tracer.disable();
  EXPECT_EQ(first.str(), second.str());

  // Parse the export back and check the global (ts, pid, tid) order.
  std::string error;
  const auto doc = obs::json::parse(first.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::vector<std::tuple<double, double, double>> order;
  bool metadata_done = false;
  for (const auto& ev : events->array) {
    const auto* ph = ev.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->str == "M") {
      EXPECT_FALSE(metadata_done) << "metadata event after a timed event";
      continue;
    }
    metadata_done = true;
    const auto* ts = ev.find("ts");
    const auto* pid = ev.find("pid");
    const auto* tid = ev.find("tid");
    ASSERT_NE(ts, nullptr);
    ASSERT_NE(pid, nullptr);
    ASSERT_NE(tid, nullptr);
    order.emplace_back(ts->num, pid->num, tid->num);
  }
  ASSERT_EQ(order.size(), 4u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

// ---------- the phase breakdown is a view of the trace ----------

/// One traced World run of an engine on the tiny dataset, 4 ranks: the
/// breakdowns World::run attributed from the in-memory events, and the
/// events and JSON the tracer holds for the same run.
struct TracedEngineRun {
  std::string label;
  std::size_t threads = 1;
  bool crash = false;
  std::vector<stat::Breakdown> breakdowns;
  std::vector<char> returned;             // the rank's body returned (it did not die)
  std::vector<std::uint64_t> tasks_done;  // per rank that returned
  std::vector<TrackSnapshot> tracks;
  std::string json;
};

TracedEngineRun run_traced_engine(bool async_mode, std::size_t threads, bool crash) {
  constexpr std::size_t kRanks = 4;
  const wl::SampledDataset& dataset = tiny_dataset();
  pipeline::PipelineConfig config;
  config.k = wl::tiny_spec().k;
  const pipeline::TaskSet tasks = pipeline::run_serial(dataset.reads, config, kRanks);
  core::EngineConfig engine_config;
  engine_config.proto.compute_threads = threads;

  TracedEngineRun run;
  run.label = std::string(async_mode ? "async" : "bsp") + " x" + std::to_string(threads) +
              (crash ? " crash@2:3" : " fault-free");
  run.threads = threads;
  run.crash = crash;
  run.returned.assign(kRanks, 0);
  run.tasks_done.assign(kRanks, 0);
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  rt::World world(kRanks);
  if (crash) world.set_faults(rt::FaultPlan::parse("seed=3,crash@2:3"));
  world.run([&](rt::Rank& rank) {
    const std::vector<kmer::AlignTask>& mine = tasks.per_rank[rank.id()];
    const core::EngineResult result =
        async_mode ? core::async_align(rank, dataset.reads, tasks.bounds, mine, engine_config)
                   : core::bsp_align(rank, dataset.reads, tasks.bounds, mine, engine_config);
    run.tasks_done[rank.id()] = result.tasks_done;
    run.returned[rank.id()] = 1;
  });
  run.breakdowns = world.breakdowns();
  run.tracks = snapshot_tracks();
  std::ostringstream out;
  tracer.write_json(out);
  run.json = out.str();
  tracer.disable();
  return run;
}

/// bsp and async, at 1 and 2 compute threads, fault-free and with rank 2
/// killed at its 3rd fault step.
std::vector<TracedEngineRun> breakdown_matrix() {
  std::vector<TracedEngineRun> runs;
  for (const bool async_mode : {false, true})
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}})
      for (const bool crash : {false, true})
        runs.push_back(run_traced_engine(async_mode, threads, crash));
  return runs;
}

void expect_same_seconds(double breakdown, double report) {
  const double tolerance = 1e-9 * std::max(std::abs(breakdown), std::abs(report));
  EXPECT_LE(std::abs(breakdown - report), tolerance)
      << "breakdown " << breakdown << " s, perf report " << report << " s";
}

TEST(TraceBreakdown, EqualsPerfReportAttributionOfTheSameRun) {
  using obs::analysis::Category;
  for (const TracedEngineRun& run : breakdown_matrix()) {
    SCOPED_TRACE(run.label);
    if (run.crash) {
      EXPECT_EQ(run.returned[2], 0);
      std::uint64_t reexecuted = 0;
      for (const stat::Breakdown& b : run.breakdowns) reexecuted += b.faults.tasks_reexecuted;
      EXPECT_GT(reexecuted, 0u);
    }
    const obs::analysis::Trace trace = obs::analysis::load_trace(run.json);
    const obs::analysis::Report report = obs::analysis::analyze(trace);
    const auto of = [](const obs::analysis::TrackStats& stats, Category c) {
      return stats.seconds[static_cast<std::size_t>(c)];
    };
    std::size_t compared = 0;
    for (const obs::analysis::TrackStats& stats : report.ranks) {
      const std::uint32_t r = trace.tracks[stats.track].pid;
      ASSERT_LT(r, run.returned.size());
      if (!run.returned[r]) continue;
      const stat::Breakdown& b = run.breakdowns[r];
      expect_same_seconds(b.compute, of(stats, Category::kCompute));
      expect_same_seconds(b.comm, of(stats, Category::kExchange));
      expect_same_seconds(b.sync, of(stats, Category::kWait));
      const double overhead = of(stats, Category::kOverhead) + of(stats, Category::kRecovery);
      expect_same_seconds(b.overhead, overhead);
      EXPECT_GT(b.compute, 0.0);
      ++compared;
    }
    const auto survivors = std::count(run.returned.begin(), run.returned.end(), 1);
    EXPECT_EQ(compared, static_cast<std::size_t>(survivors));
  }
}

TEST(TraceBreakdown, WireCodecIsExchange) {
  // Encode, ship and decode are one exchange layer, in both engines: frame
  // packing and frame decoding are charged to exchange, not overhead.
  using obs::analysis::Category;
  EXPECT_EQ(obs::analysis::categorize(obs::span::kWireCompress), Category::kExchange);
  EXPECT_EQ(obs::analysis::categorize(obs::span::kWireDecompress), Category::kExchange);
  for (const bool async_mode : {false, true}) {
    SCOPED_TRACE(async_mode ? "async" : "bsp");
    const RealRun run = run_real(async_mode, 4, proto::WireCompression::kPack2);
    const obs::analysis::Trace trace = obs::analysis::load_trace(run.json);
    std::size_t wire_spans = 0;
    for (const obs::analysis::Track& track : trace.tracks) {
      for (const obs::analysis::Span& span : track.spans) {
        if (span.name != obs::span::kWireCompress && span.name != obs::span::kWireDecompress)
          continue;
        EXPECT_EQ(obs::analysis::categorize(span.name), Category::kExchange);
        ++wire_spans;
      }
    }
    EXPECT_GT(wire_spans, 0u);
  }
}

TEST(TraceBreakdown, StageHelpersChargeTheirRankAsCompute) {
  // With 3 threads per rank, stage 2's helpers run on the worker tracks
  // (rank, 1) and (rank, 2) inside stage spans, charged to their rank as
  // compute, while the rank thread waits for them inside compute.pool;
  // the breakdown still equals perf report's attribution. At 1 thread
  // there are neither helpers nor a compute.pool span.
  using obs::analysis::Category;
  const wl::SampledDataset dataset = wl::synthesize(wl::tiny_spec(), 7);
  pipeline::PipelineConfig config;
  config.k = wl::tiny_spec().k;
  constexpr std::size_t kRanks = 2;
  const std::vector<seq::ReadId> bounds = pipeline::compute_bounds(dataset.reads, kRanks);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    config.threads = threads;
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.enable();
    rt::World world(kRanks);
    world.run([&](rt::Rank& rank) {
      (void)pipeline::run_distributed(rank, dataset.reads, config, bounds);
    });
    const std::vector<stat::Breakdown> breakdowns = world.breakdowns();
    std::ostringstream out;
    tracer.write_json(out);
    tracer.disable();

    const obs::analysis::Trace trace = obs::analysis::load_trace(out.str());
    std::set<std::pair<std::uint32_t, std::uint32_t>> helper_tracks;
    std::size_t pool_waits = 0;
    for (const obs::analysis::Track& track : trace.tracks) {
      for (const obs::analysis::Span& span : track.spans) {
        if (span.name == obs::span::kComputePool) {
          EXPECT_EQ(track.tid, 0u);
          EXPECT_EQ(obs::analysis::categorize(span.name), Category::kWait);
          EXPECT_EQ(span.depth, 1u);  // inside a stage span
          ++pool_waits;
        }
        if (track.tid == 0) continue;
        EXPECT_TRUE(span.name == obs::span::kStageKmerRecords ||
                    span.name == obs::span::kStageKmerJoin)
            << span.name;
        EXPECT_EQ(obs::analysis::categorize(span.name), Category::kCompute);
        helper_tracks.insert({track.pid, track.tid});
      }
    }
    const std::size_t helpers = kRanks * (threads - 1);
    EXPECT_EQ(helper_tracks.size(), helpers);
    EXPECT_EQ(pool_waits, threads > 1 ? kRanks * 3 : 0u);  // two pack steps and the join

    const obs::analysis::Report report = obs::analysis::analyze(trace);
    ASSERT_EQ(report.ranks.size(), kRanks);
    for (const obs::analysis::TrackStats& stats : report.ranks) {
      const std::uint32_t r = trace.tracks[stats.track].pid;
      ASSERT_LT(r, kRanks);
      const auto of = [&](Category c) { return stats.seconds[static_cast<std::size_t>(c)]; };
      expect_same_seconds(breakdowns[r].compute, of(Category::kCompute));
      expect_same_seconds(breakdowns[r].sync, of(Category::kWait));
      EXPECT_GT(breakdowns[r].compute, 0.0);
    }
  }
}

TEST(TraceBreakdown, RuntimeIsTheLongestRankWallExtent) {
  // At 2 ranks x 2 compute threads the four categories sum thread-seconds:
  // the rank thread waits in compute.pool while its workers compute, so the
  // largest sum exceeds the phase. The summary's runtime is the longest
  // rank thread's wall extent instead: within 5 % of the phase's extent over
  // every track of the run, and inside the World run that holds it.
  constexpr std::size_t kRanks = 2;
  const wl::SampledDataset& dataset = tiny_dataset();
  pipeline::PipelineConfig config;
  config.k = wl::tiny_spec().k;
  const pipeline::TaskSet tasks = pipeline::run_serial(dataset.reads, config, kRanks);
  core::EngineConfig engine_config;
  engine_config.proto.compute_threads = 2;
  for (const bool async_mode : {false, true}) {
    SCOPED_TRACE(async_mode ? "async" : "bsp");
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.enable();
    rt::World world(kRanks);
    const WallTimer timer;
    world.run([&](rt::Rank& rank) {
      const std::vector<kmer::AlignTask>& mine = tasks.per_rank[rank.id()];
      if (async_mode) {
        core::async_align(rank, dataset.reads, tasks.bounds, mine, engine_config);
      } else {
        core::bsp_align(rank, dataset.reads, tasks.bounds, mine, engine_config);
      }
    });
    const double run_seconds = timer.seconds();
    std::ostringstream out;
    tracer.write_json(out);
    tracer.disable();

    const obs::analysis::Trace trace = obs::analysis::load_trace(out.str());
    std::int64_t first_ns = std::numeric_limits<std::int64_t>::max();
    std::int64_t last_ns = std::numeric_limits<std::int64_t>::min();
    for (const obs::analysis::Track& track : trace.tracks) {
      if (track.pid >= kRanks || track.spans.empty()) continue;
      first_ns = std::min(first_ns, track.first_ns);
      last_ns = std::max(last_ns, track.last_ns);
    }
    ASSERT_LT(first_ns, last_ns);
    const double extent = 1e-9 * static_cast<double>(last_ns - first_ns);

    const stat::Summary summary = stat::summarize(world.breakdowns());
    double thread_seconds = 0;
    for (const stat::Breakdown& b : world.breakdowns())
      thread_seconds = std::max(thread_seconds, b.total());
    EXPECT_NEAR(summary.runtime, extent, 0.05 * extent);
    EXPECT_LE(summary.runtime, run_seconds);
    EXPECT_GT(thread_seconds, summary.runtime);
  }
}

TEST(TraceBreakdown, ComputeBatchSpansCoverEveryTask) {
  for (const TracedEngineRun& run : breakdown_matrix()) {
    SCOPED_TRACE(run.label);
    std::uint64_t spanned = 0;
    std::uint64_t on_workers = 0;
    for (const TrackSnapshot& track : run.tracks) {
      ASSERT_LT(track.pid, run.returned.size());
      if (!run.returned[track.pid]) continue;
      for (const obs::TraceEvent& e : track.events) {
        if (e.phase != obs::TraceEvent::Phase::kBegin) continue;
        if (std::string(e.name) != obs::span::kComputeBatch) continue;
        ASSERT_NE(e.key0, nullptr);
        EXPECT_EQ(std::string(e.key0), "tasks");
        spanned += e.val0;
        if (track.tid > 0) on_workers += e.val0;
      }
    }
    std::uint64_t done = 0;
    for (std::size_t r = 0; r < run.returned.size(); ++r)
      if (run.returned[r]) done += run.tasks_done[r];
    EXPECT_GT(done, 0u);
    EXPECT_EQ(spanned, done);
    // Pooled, every kernel call runs on a worker's own track.
    EXPECT_EQ(on_workers, run.threads > 1 ? done : 0u);
  }
}

#endif  // GNB_TRACE_ENABLED

// ---------- metrics registry ----------

TEST(Metrics, CountersGaugesHistograms) {
  obs::MetricsRegistry registry;
  EXPECT_TRUE(registry.empty());
  registry.add("c", 2);
  registry.add("c", 3);
  EXPECT_EQ(registry.counter("c"), 5u);
  EXPECT_EQ(registry.counter("missing"), 0u);
  registry.gauge_max("g", 7);
  registry.gauge_max("g", 4);  // gauges keep the max
  EXPECT_EQ(registry.gauge("g"), 7u);
  registry.observe("h", 0);
  registry.observe("h", 1);
  registry.observe("h", 1000);
  const obs::HistogramMetric* h = registry.histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_EQ(h->sum, 1001u);
  EXPECT_EQ(h->min, 0u);
  EXPECT_EQ(h->max, 1000u);
  EXPECT_EQ(h->buckets[0], 1u);   // v == 0
  EXPECT_EQ(h->buckets[1], 1u);   // v == 1
  EXPECT_EQ(h->buckets[10], 1u);  // 512 <= 1000 < 1024
}

TEST(Metrics, MergeAcrossRanks) {
  obs::MetricsRegistry a, b;
  a.add("c", 1);
  b.add("c", 2);
  a.gauge_max("g", 3);
  b.gauge_max("g", 9);
  a.observe("h", 4);
  b.observe("h", 8);
  a.merge(b);
  EXPECT_EQ(a.counter("c"), 3u);
  EXPECT_EQ(a.gauge("g"), 9u);
  ASSERT_NE(a.histogram("h"), nullptr);
  EXPECT_EQ(a.histogram("h")->count, 2u);
  EXPECT_EQ(a.histogram("h")->sum, 12u);
}

TEST(Metrics, JsonDumpParsesAndIsNameSorted) {
  obs::MetricsRegistry registry;
  registry.add("z.last", 1);
  registry.add("a.first", 2);
  registry.gauge_max("m.gauge", 5);
  std::ostringstream out;
  registry.write_json(out);
  const auto doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.has_value());
  const obs::json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->object.size(), 2u);
  EXPECT_EQ(counters->object[0].first, "a.first");  // std::map iteration order
  EXPECT_EQ(counters->object[1].first, "z.last");
  const obs::json::Value* gauges = doc->find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->object.size(), 1u);
}

TEST(Metrics, PhaseDocumentStructure) {
  obs::MetricsRegistry pipeline, align;
  pipeline.add(obs::metric::kPipelineReads, 100);
  align.add(obs::metric::kAlignTasks, 42);
  const obs::MetricsPhase phases[] = {{"pipeline", &pipeline}, {"align", &align}};
  std::ostringstream out;
  obs::write_metrics_json(out, R"({"command":"test"})", phases);
  const auto doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.has_value());
  const obs::json::Value* run = doc->find("run");
  ASSERT_NE(run, nullptr);
  ASSERT_NE(run->find("command"), nullptr);
  EXPECT_EQ(run->find("command")->str, "test");
  const obs::json::Value* phase_array = doc->find("phases");
  ASSERT_NE(phase_array, nullptr);
  ASSERT_EQ(phase_array->array.size(), 2u);
  EXPECT_EQ(phase_array->array[0].find("phase")->str, "pipeline");
  EXPECT_EQ(phase_array->array[1].find("phase")->str, "align");
}

// ---------- FaultCounters descriptor table ----------

TEST(FaultCounters, FieldTableDrivesMergeAndAny) {
  stat::FaultCounters a, b;
  EXPECT_FALSE(a.any());
  b.retries = 2;
  b.crashes = 1;
  b.recovery_seconds = 0.5;
  EXPECT_TRUE(b.any());
  a.merge(b);
  a.merge(b);
  EXPECT_EQ(a.retries, 4u);
  EXPECT_EQ(a.crashes, 2u);
  EXPECT_DOUBLE_EQ(a.recovery_seconds, 1.0);
  // Every integer member is reachable through the descriptor table.
  EXPECT_GE(stat::FaultCounters::fields().size(), 9u);
}

TEST(FaultCounters, ExportUsesFaultPrefixedNames) {
  stat::FaultCounters faults;
  faults.retries = 3;
  faults.tasks_reexecuted = 7;
  faults.recovery_seconds = 0.25;
  obs::MetricsRegistry registry;
  stat::export_metrics(faults, registry);
  EXPECT_EQ(registry.counter("fault.retries"), 3u);
  EXPECT_EQ(registry.counter("fault.tasks_reexecuted"), 7u);
  EXPECT_EQ(registry.counter("fault.recovery_us"), 250'000u);
  // One registry entry per descriptor field (+ recovery_us).
  EXPECT_EQ(registry.counters().size(), stat::FaultCounters::fields().size() + 1);
}

// ---------- JSON utilities ----------

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_FALSE(obs::json::parse("{").has_value());
  EXPECT_FALSE(obs::json::parse("{}extra").has_value());
  EXPECT_TRUE(obs::json::parse(R"({"k":[1,2,{"n":null}]})").has_value());
}

TEST(Json, ValidateTraceCatchesUnbalancedSpans) {
  std::string error;
  EXPECT_TRUE(obs::json::validate_trace(
      R"({"traceEvents":[{"name":"s","ph":"B","ts":0,"pid":1,"tid":0},)"
      R"({"name":"s","ph":"E","ts":1,"pid":1,"tid":0}]})",
      &error))
      << error;
  EXPECT_FALSE(obs::json::validate_trace(
      R"({"traceEvents":[{"name":"s","ph":"B","ts":0,"pid":1,"tid":0}]})", &error));
}

}  // namespace
