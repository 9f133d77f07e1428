// Tests for the trace-analytics layer (src/obs/analysis) and the
// perf-regression gate (src/obs/perfdiff): hand-built trace fixtures with
// known critical paths (straggler and crash/rejoin shapes), attribution
// arithmetic checked against closed-form values, PERF_report.json
// determinism, diff-gate edge cases (missing span, new span, zero
// baseline, gate-pct), and sim-vs-real fidelity bounds for both engines on
// a seeded preset.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/async.hpp"
#include "core/bsp.hpp"
#include "core/calibrate.hpp"
#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "obs/perfdiff.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "pipeline/pipeline.hpp"
#include "rt/world.hpp"
#include "sim/assignment.hpp"
#include "sim/machine.hpp"
#include "sim/perf_model.hpp"
#include "util/error.hpp"
#include "wl/presets.hpp"

using namespace gnb;
namespace analysis = gnb::obs::analysis;
namespace perfdiff = gnb::obs::perfdiff;

namespace {

// ---------- hand-built Chrome-trace fixtures ----------

/// Builds a trace-event JSON document event by event, in the same dialect
/// obs::Tracer::write_json emits (ts in integer microseconds here; the
/// loader multiplies by 1000).
class TraceFixture {
 public:
  void process(std::uint32_t pid, const std::string& label) {
    event("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
          ",\"args\":{\"name\":\"" + label + "\"}}");
  }
  void thread(std::uint32_t pid, std::uint32_t tid, const std::string& label) {
    event("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
          ",\"tid\":" + std::to_string(tid) + ",\"args\":{\"name\":\"" + label + "\"}}");
  }
  void span(std::uint32_t pid, std::uint32_t tid, const std::string& name,
            std::int64_t begin_us, std::int64_t end_us) {
    event(head(name, "B", begin_us, pid, tid) + "}");
    event(head(name, "E", end_us, pid, tid) + "}");
  }
  void complete(std::uint32_t pid, std::uint32_t tid, const std::string& name,
                std::int64_t begin_us, std::int64_t dur_us) {
    event(head(name, "X", begin_us, pid, tid) + ",\"dur\":" + std::to_string(dur_us) + "}");
  }
  void instant(std::uint32_t pid, std::uint32_t tid, const std::string& name,
               std::int64_t ts_us) {
    event(head(name, "i", ts_us, pid, tid) + ",\"s\":\"t\"}");
  }
  void raw(const std::string& text) { event(text); }

  [[nodiscard]] std::string json(const std::string& dropped = "0") const {
    return "{\"traceEvents\":[\n" + events_ +
           "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"gnbody\","
           "\"dropped_events\":\"" +
           dropped + "\"}}";
  }

 private:
  static std::string head(const std::string& name, const char* ph, std::int64_t ts_us,
                          std::uint32_t pid, std::uint32_t tid) {
    return "{\"name\":\"" + name + "\",\"ph\":\"" + ph + "\",\"ts\":" + std::to_string(ts_us) +
           ".000,\"pid\":" + std::to_string(pid) + ",\"tid\":" + std::to_string(tid);
  }
  void event(const std::string& text) {
    if (!events_.empty()) events_ += ",\n";
    events_ += text;
  }
  std::string events_;
};

/// Two-rank BSP round where rank 1 straggles in its local compute: the
/// critical path must run through rank 1's bsp.local_tasks up to the
/// alltoallv boundary. All numbers are exact (integer microseconds).
std::string straggler_trace() {
  TraceFixture f;
  f.process(0, "driver");
  f.thread(0, 0, "core 0");
  f.span(0, 0, obs::span::kStagePartition, 0, 500);  // no collectives: not a rank track
  for (std::uint32_t r = 1; r <= 2; ++r) {
    f.process(r, "rank " + std::to_string(r - 1) + " [monotonic]");
    f.thread(r, 0, "core 0");
  }
  // rank 0: fast compute, long wait inside the alltoallv.
  f.span(1, 0, obs::span::kBspRound, 0, 102'000);
  f.span(1, 0, obs::span::kBspLocalTasks, 0, 10'000);
  f.span(1, 0, obs::span::kCollAlltoallv, 10'000, 101'000);
  f.span(1, 0, obs::span::kCollBarrier, 101'000, 102'000);
  // rank 1: 10x the compute, arrives at the alltoallv last.
  f.span(2, 0, obs::span::kBspRound, 0, 102'000);
  f.span(2, 0, obs::span::kBspLocalTasks, 0, 100'000);
  f.span(2, 0, obs::span::kCollAlltoallv, 100'000, 101'000);
  f.span(2, 0, obs::span::kCollBarrier, 101'000, 102'000);
  return f.json();
}

/// Crash/rejoin shape: rank 0 loses time to recovery (a recovery.* child
/// span nested inside recovery.recover) before the barrier; the dominant
/// span of the critical segment must be the recovery, categorized
/// kRecovery, and the child's self time is charged to the same category.
std::string recovery_trace() {
  TraceFixture f;
  for (std::uint32_t r = 1; r <= 2; ++r) {
    f.process(r, "rank " + std::to_string(r - 1) + " [monotonic]");
    f.thread(r, 0, "core 0");
  }
  f.span(1, 0, obs::span::kBspRound, 0, 31'000);
  f.span(1, 0, obs::span::kBspLocalTasks, 0, 10'000);
  f.span(1, 0, obs::span::kRecovery, 10'000, 30'000);
  f.span(1, 0, "recovery.refetch", 12'000, 20'000);
  f.span(1, 0, obs::span::kCollBarrier, 30'000, 31'000);
  f.instant(1, 0, obs::span::kFaultCrash, 10'000);
  f.instant(1, 0, obs::span::kRejoinAdmit, 30'000);
  f.span(2, 0, obs::span::kBspRound, 0, 31'000);
  f.span(2, 0, obs::span::kBspLocalTasks, 0, 5'000);
  f.span(2, 0, obs::span::kCollBarrier, 5'000, 31'000);
  return f.json();
}

constexpr std::size_t cat(analysis::Category c) { return static_cast<std::size_t>(c); }

perfdiff::Entry entry(const std::string& path, double value, bool counted) {
  perfdiff::Entry e;
  e.path = path;
  e.value = value;
  e.counted = counted;
  return e;
}

}  // namespace

// ---------- load_trace ----------

TEST(LoadTrace, ParsesTracksSpansAndLabels) {
  const analysis::Trace trace = analysis::load_trace(straggler_trace());
  ASSERT_EQ(trace.tracks.size(), 3u);  // driver + 2 ranks, (pid, tid) order
  EXPECT_EQ(trace.clock, "monotonic");
  EXPECT_EQ(trace.dropped_events, 0u);
  EXPECT_EQ(trace.tracks[0].process_label, "driver");
  EXPECT_FALSE(trace.tracks[0].has_collectives());
  EXPECT_EQ(trace.tracks[1].process_label, "rank 0 [monotonic]");
  EXPECT_TRUE(trace.tracks[1].has_collectives());
  ASSERT_EQ(trace.tracks[1].spans.size(), 4u);
  // (begin, -end) order: the round container sorts before its children.
  EXPECT_EQ(trace.tracks[1].spans[0].name, obs::span::kBspRound);
  EXPECT_EQ(trace.tracks[1].spans[0].depth, 0u);
  EXPECT_EQ(trace.tracks[1].spans[1].name, obs::span::kBspLocalTasks);
  EXPECT_EQ(trace.tracks[1].spans[1].depth, 1u);
  // Self time: the container's duration minus its three children.
  EXPECT_EQ(trace.tracks[1].spans[0].self_ns, 0);
  EXPECT_EQ(trace.tracks[1].spans[1].self_ns, 10'000'000);
}

TEST(LoadTrace, VirtualClockCompleteEventsAndDrops) {
  TraceFixture f;
  f.process(0, "rank 0 [virtual]");
  f.thread(0, 0, "core 0");
  f.complete(0, 0, obs::span::kBspRound, 0, 1'000);
  f.complete(0, 0, obs::span::kBspLocalTasks, 0, 600);
  f.complete(0, 0, obs::span::kCollBarrier, 600, 400);
  const analysis::Trace trace = analysis::load_trace(f.json("7"));
  EXPECT_EQ(trace.clock, "virtual");
  EXPECT_EQ(trace.dropped_events, 7u);
  ASSERT_EQ(trace.tracks.size(), 1u);
  ASSERT_EQ(trace.tracks[0].spans.size(), 3u);
  EXPECT_EQ(trace.tracks[0].spans[0].duration_ns(), 1'000'000);
  const analysis::Report report = analysis::analyze(trace);
  EXPECT_EQ(report.dropped_events, 7u);
  EXPECT_NEAR(report.span_seconds.at(obs::span::kBspRound), 1e-3, 1e-12);
}

TEST(LoadTrace, RejectsMalformedInput) {
  EXPECT_THROW((void)analysis::load_trace("not json"), gnb::Error);
  EXPECT_THROW((void)analysis::load_trace("{\"noTraceEvents\":[]}"), gnb::Error);
  {
    TraceFixture f;  // E without a matching B
    f.raw("{\"name\":\"x\",\"ph\":\"E\",\"ts\":1.000,\"pid\":0,\"tid\":0}");
    EXPECT_THROW((void)analysis::load_trace(f.json()), gnb::Error);
  }
  {
    TraceFixture f;  // B never closed
    f.raw("{\"name\":\"x\",\"ph\":\"B\",\"ts\":1.000,\"pid\":0,\"tid\":0}");
    EXPECT_THROW((void)analysis::load_trace(f.json()), gnb::Error);
  }
}

// ---------- critical path + attribution ----------

TEST(CriticalPath, StragglerDominatesUpToTheAlltoallv) {
  const analysis::Report report = analysis::analyze(analysis::load_trace(straggler_trace()));
  EXPECT_EQ(report.rank_tracks, 2u);
  ASSERT_EQ(report.critical_path.size(), 2u);

  // Segment 0 ends at the alltoallv and runs through rank 1 (track index
  // 2), whose 100 ms of local compute is what everyone waited for.
  const analysis::CriticalSegment& s0 = report.critical_path[0];
  EXPECT_EQ(s0.track, 2u);
  EXPECT_EQ(s0.boundary, obs::span::kCollAlltoallv);
  EXPECT_EQ(s0.dominant_span, obs::span::kBspLocalTasks);
  EXPECT_EQ(s0.category, analysis::Category::kCompute);
  EXPECT_EQ(s0.begin_ns, 0);
  EXPECT_EQ(s0.end_ns, 100'000'000);

  // Segment 1: both ranks reach the barrier together — a zero-length
  // segment whose boundary is still on the path.
  const analysis::CriticalSegment& s1 = report.critical_path[1];
  EXPECT_EQ(s1.boundary, obs::span::kCollBarrier);
  EXPECT_EQ(s1.begin_ns, s1.end_ns);

  // Path = 100 ms compute + 1 ms alltoallv + 1 ms barrier = total extent.
  EXPECT_NEAR(report.critical_path_seconds, 0.102, 1e-9);
  EXPECT_NEAR(report.total_seconds, 0.102, 1e-9);

  // Attribution in closed form: compute 10+100 ms, exchange 91+1 ms
  // (the early rank's wait hides inside its alltoallv), wait 2x1 ms.
  EXPECT_NEAR(report.attribution_seconds[cat(analysis::Category::kCompute)], 0.110, 1e-9);
  EXPECT_NEAR(report.attribution_seconds[cat(analysis::Category::kExchange)], 0.092, 1e-9);
  EXPECT_NEAR(report.attribution_seconds[cat(analysis::Category::kWait)], 0.002, 1e-9);
  EXPECT_NEAR(report.attribution_seconds[cat(analysis::Category::kOverhead)], 0.0, 1e-9);

  // max/mean of per-rank compute: 100 / ((10+100)/2).
  EXPECT_NEAR(report.load_imbalance, 100.0 / 55.0, 1e-9);
}

TEST(CriticalPath, RecoveryShapeChargesTheRecoveryCategory) {
  const analysis::Report report = analysis::analyze(analysis::load_trace(recovery_trace()));
  ASSERT_EQ(report.critical_path.size(), 1u);
  const analysis::CriticalSegment& seg = report.critical_path[0];
  EXPECT_EQ(seg.track, 0u);  // rank 0 arrives at the barrier last
  EXPECT_EQ(seg.boundary, obs::span::kCollBarrier);
  // recovery.recover has 12 ms of self time vs 10 ms of local compute and
  // 8 ms of nested recovery.refetch: the recovery dominates the window.
  EXPECT_EQ(seg.dominant_span, obs::span::kRecovery);
  EXPECT_EQ(seg.category, analysis::Category::kRecovery);
  EXPECT_NEAR(report.attribution_seconds[cat(analysis::Category::kRecovery)], 0.020, 1e-9);
  EXPECT_EQ(report.span_counts.at(obs::span::kFaultCrash), 1u);
  EXPECT_EQ(report.span_counts.at(obs::span::kRejoinAdmit), 1u);
}

// ---------- counted-metric curation ----------

TEST(CountedMetric, SeparatesDeterministicFromHostDependent) {
  EXPECT_TRUE(analysis::counted_metric("exchange.bytes"));
  EXPECT_TRUE(analysis::counted_metric("exchange.rounds"));
  EXPECT_TRUE(analysis::counted_metric("align.tasks"));
  EXPECT_TRUE(analysis::counted_metric("fault.crashes"));
  EXPECT_TRUE(analysis::counted_metric("rejoin.count"));
  EXPECT_TRUE(analysis::counted_metric("trace.dropped_events"));
  EXPECT_TRUE(analysis::counted_metric("rpc.requests_served"));

  EXPECT_FALSE(analysis::counted_metric("fault.recovery_us"));  // wall-clock
  EXPECT_FALSE(analysis::counted_metric("mem.peak_bytes"));     // allocator
  EXPECT_FALSE(analysis::counted_metric("cache.hits"));         // timing-raced
  EXPECT_FALSE(analysis::counted_metric("pool.batches"));
  EXPECT_FALSE(analysis::counted_metric("kernel.lane_steps"));  // backend-dependent
  EXPECT_FALSE(analysis::counted_metric("rpc.inflight_max"));
  EXPECT_FALSE(analysis::counted_metric("align.scratch_bytes"));
  EXPECT_FALSE(analysis::counted_metric("wall.seconds"));
}

TEST(CountedMetric, MergeMetricsJsonCurates) {
  analysis::Report report;
  const std::string doc =
      "{\"run\":{},\"phases\":[{\"phase\":\"align\",\"metrics\":{"
      "\"counters\":{\"exchange.bytes\":100,\"cache.hits\":5},"
      "\"gauges\":{\"exchange.rounds\":3,\"mem.peak_bytes\":999}}},"
      "{\"phase\":\"graph\",\"metrics\":{\"counters\":{\"exchange.bytes\":20}}}]}";
  analysis::merge_metrics_json(report, doc);
  EXPECT_EQ(report.metrics.at("exchange.bytes"), 120u);  // summed across phases
  EXPECT_EQ(report.metrics.at("exchange.rounds"), 3u);
  EXPECT_EQ(report.metrics.count("cache.hits"), 0u);
  EXPECT_EQ(report.metrics.count("mem.peak_bytes"), 0u);
  EXPECT_THROW(analysis::merge_metrics_json(report, "{\"no_phases\":1}"), gnb::Error);
}

// ---------- PERF_report.json determinism + flatten ----------

TEST(ReportJson, ByteIdenticalAcrossWritesAndRoundTrips) {
  const analysis::Report report = analysis::analyze(analysis::load_trace(straggler_trace()));
  std::ostringstream a, b;
  analysis::write_report_json(a, report);
  analysis::write_report_json(b, report);
  EXPECT_EQ(a.str(), b.str());

  std::string error;
  auto doc = obs::json::parse(a.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_NE(doc->find("perf_report_version"), nullptr);

  const std::vector<perfdiff::Entry> entries = perfdiff::flatten(a.str());
  bool saw_counted_span = false, saw_timing = false;
  for (const perfdiff::Entry& e : entries) {
    if (e.path == "counted.span_counts.coll.barrier") {
      saw_counted_span = true;
      EXPECT_TRUE(e.counted);
      EXPECT_EQ(e.value, 2.0);
    }
    if (e.path == "timing.total_seconds") {
      saw_timing = true;
      EXPECT_FALSE(e.counted);
    }
    // Per-rank / per-segment arrays are excluded from the diff surface
    // (timing.critical_path_seconds, the scalar, stays).
    EXPECT_EQ(e.path.find("timing.ranks."), std::string::npos) << e.path;
    EXPECT_EQ(e.path.find("timing.critical_path."), std::string::npos) << e.path;
  }
  EXPECT_TRUE(saw_counted_span);
  EXPECT_TRUE(saw_timing);
}

TEST(ReportJson, DroppedEventsReachTheCountedSection) {
  analysis::Trace trace = analysis::load_trace(straggler_trace());
  trace.dropped_events = 9;
  const analysis::Report report = analysis::analyze(trace);
  std::ostringstream out;
  analysis::write_report_json(out, report);
  const std::vector<perfdiff::Entry> entries = perfdiff::flatten(out.str());
  bool found = false;
  for (const perfdiff::Entry& e : entries) {
    if (e.path == "counted.dropped_events") {
      found = true;
      EXPECT_TRUE(e.counted);
      EXPECT_EQ(e.value, 9.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Flatten, BenchRowsUseLabelsAndCurateMetrics) {
  const std::string doc =
      "{\"bench\":\"kernels\",\"rows\":[{"
      "\"labels\":{\"case\":\"align\",\"threads\":2},"
      "\"rounds\":4,\"messages\":10,\"exchange_bytes\":100,\"wall_s\":1.5,"
      "\"metrics\":{\"counters\":{\"exchange.bytes\":100,\"cache.hits\":5},"
      "\"gauges\":{\"mem.peak_bytes\":123},"
      "\"histograms\":{\"rpc.reply_bytes\":{\"count\":2}}}}]}";
  const std::vector<perfdiff::Entry> entries = perfdiff::flatten(doc);
  auto find = [&](const std::string& path) -> const perfdiff::Entry* {
    for (const perfdiff::Entry& e : entries) {
      if (e.path == path) return &e;
    }
    return nullptr;
  };
  const std::string base = "rows.case=align,threads=2";
  ASSERT_NE(find(base + ".rounds"), nullptr);
  EXPECT_TRUE(find(base + ".rounds")->counted);
  ASSERT_NE(find(base + ".wall_s"), nullptr);
  EXPECT_FALSE(find(base + ".wall_s")->counted);
  ASSERT_NE(find(base + ".metrics.exchange.bytes"), nullptr);
  EXPECT_TRUE(find(base + ".metrics.exchange.bytes")->counted);
  ASSERT_NE(find(base + ".metrics.cache.hits"), nullptr);
  EXPECT_FALSE(find(base + ".metrics.cache.hits")->counted);
  EXPECT_EQ(find(base + ".metrics.rpc.reply_bytes.count"), nullptr);  // histograms skipped
  EXPECT_THROW((void)perfdiff::flatten("{\"neither\":1}"), gnb::Error);
}

// ---------- diff-gate edge cases ----------

TEST(PerfDiff, IdenticalReportsDiffEmpty) {
  const analysis::Report report = analysis::analyze(analysis::load_trace(straggler_trace()));
  std::ostringstream out;
  analysis::write_report_json(out, report);
  const auto base = perfdiff::flatten(out.str());
  const perfdiff::DiffResult result = perfdiff::diff(base, base);
  EXPECT_TRUE(result.changes.empty());
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_EQ(result.warnings, 0u);
  EXPECT_GT(result.compared, 10u);
  std::ostringstream table;
  EXPECT_TRUE(perfdiff::print_diff(table, result));
}

TEST(PerfDiff, MissingCountedPathIsGated) {
  const auto base = std::vector<perfdiff::Entry>{entry("counted.a", 5, true),
                                                 entry("counted.b", 3, true)};
  const auto cand = std::vector<perfdiff::Entry>{entry("counted.a", 5, true)};
  const perfdiff::DiffResult result = perfdiff::diff(base, cand);
  EXPECT_EQ(result.regressions, 1u);
  ASSERT_EQ(result.changes.size(), 1u);
  EXPECT_EQ(result.changes[0].kind, perfdiff::ChangeKind::kMissing);
  EXPECT_EQ(result.changes[0].path, "counted.b");
  std::ostringstream table;
  EXPECT_FALSE(perfdiff::print_diff(table, result));
}

TEST(PerfDiff, NewCountedPathIsGatedNewTimingIsNot) {
  const auto base = std::vector<perfdiff::Entry>{entry("counted.a", 5, true)};
  const auto cand = std::vector<perfdiff::Entry>{
      entry("counted.a", 5, true), entry("counted.fault.straggle", 2, true),
      entry("timing.extra_seconds", 1.0, false)};
  const perfdiff::DiffResult result = perfdiff::diff(base, cand);
  EXPECT_EQ(result.regressions, 1u);
  ASSERT_EQ(result.changes.size(), 1u);
  EXPECT_EQ(result.changes[0].kind, perfdiff::ChangeKind::kNew);
  EXPECT_EQ(result.changes[0].path, "counted.fault.straggle");
}

TEST(PerfDiff, ZeroBaselineGrowthFailsAnyGate) {
  const auto base = std::vector<perfdiff::Entry>{entry("counted.a", 0, true)};
  const auto cand = std::vector<perfdiff::Entry>{entry("counted.a", 4, true)};
  perfdiff::DiffOptions options;
  options.gate_pct = 50.0;  // even a generous gate cannot admit 0 -> 4
  const perfdiff::DiffResult result = perfdiff::diff(base, cand, options);
  EXPECT_EQ(result.regressions, 1u);
  ASSERT_EQ(result.changes.size(), 1u);
  EXPECT_EQ(result.changes[0].kind, perfdiff::ChangeKind::kRegression);
}

TEST(PerfDiff, GatePctBoundsCountedGrowth) {
  const auto base = std::vector<perfdiff::Entry>{entry("counted.a", 100, true)};
  perfdiff::DiffOptions options;
  options.gate_pct = 10.0;
  {  // 5% growth: inside the gate, reported as within-gate change, passes
    const auto cand = std::vector<perfdiff::Entry>{entry("counted.a", 105, true)};
    const perfdiff::DiffResult result = perfdiff::diff(base, cand, options);
    EXPECT_EQ(result.regressions, 0u);
    ASSERT_EQ(result.changes.size(), 1u);
    EXPECT_EQ(result.changes[0].kind, perfdiff::ChangeKind::kImprovement);
  }
  {  // 20% growth: beyond the gate
    const auto cand = std::vector<perfdiff::Entry>{entry("counted.a", 120, true)};
    const perfdiff::DiffResult result = perfdiff::diff(base, cand, options);
    EXPECT_EQ(result.regressions, 1u);
    EXPECT_EQ(result.changes[0].kind, perfdiff::ChangeKind::kRegression);
  }
  {  // shrink: improvement, never a failure, even at gate 0
    const auto cand = std::vector<perfdiff::Entry>{entry("counted.a", 80, true)};
    const perfdiff::DiffResult result = perfdiff::diff(base, cand);
    EXPECT_EQ(result.regressions, 0u);
    ASSERT_EQ(result.changes.size(), 1u);
    EXPECT_EQ(result.changes[0].kind, perfdiff::ChangeKind::kImprovement);
  }
}

TEST(PerfDiff, TimingMovesWarnButNeverGate) {
  const auto base = std::vector<perfdiff::Entry>{entry("timing.total_seconds", 1.0, false),
                                                 entry("timing.gone_seconds", 2.0, false)};
  const auto cand = std::vector<perfdiff::Entry>{entry("timing.total_seconds", 1.5, false)};
  const perfdiff::DiffResult result = perfdiff::diff(base, cand);
  EXPECT_EQ(result.regressions, 0u);
  EXPECT_EQ(result.warnings, 2u);  // 50% move + missing timing path
  std::ostringstream table;
  EXPECT_TRUE(perfdiff::print_diff(table, result));  // warnings pass the gate

  // Below warn_pct the move is filtered out entirely.
  const auto quiet = std::vector<perfdiff::Entry>{entry("timing.total_seconds", 1.05, false),
                                                  entry("timing.gone_seconds", 2.0, false)};
  const perfdiff::DiffResult small = perfdiff::diff(base, quiet);
  EXPECT_EQ(small.warnings, 0u);
  EXPECT_TRUE(small.changes.empty());
}

// ---------- fidelity ----------

TEST(Fidelity, WeightedScoreAndOneSidedSpans) {
  analysis::Report real, sim;
  real.span_seconds = {{"a", 1.0}, {"b", 2.0}, {"gone", 0.5}};
  sim.span_seconds = {{"a", 0.5}, {"b", 2.0}, {"extra", 1.0}};
  const analysis::Fidelity f = analysis::compare_fidelity(real, sim);
  ASSERT_EQ(f.rows.size(), 2u);
  // Sorted by descending weight: b (2.0) before a (1.0).
  EXPECT_EQ(f.rows[0].name, "b");
  EXPECT_NEAR(f.rows[0].accuracy, 1.0, 1e-12);
  EXPECT_NEAR(f.rows[0].drift, 0.0, 1e-12);
  EXPECT_EQ(f.rows[1].name, "a");
  EXPECT_NEAR(f.rows[1].accuracy, 0.5, 1e-12);
  EXPECT_NEAR(f.rows[1].drift, -0.5, 1e-12);
  // score = (2.0 * 1.0 + 1.0 * 0.5) / 3.0
  EXPECT_NEAR(f.score, 2.5 / 3.0, 1e-12);
  ASSERT_EQ(f.real_only.size(), 1u);
  EXPECT_EQ(f.real_only[0], "gone");
  ASSERT_EQ(f.sim_only.size(), 1u);
  EXPECT_EQ(f.sim_only[0], "extra");
}

#if GNB_TRACE_ENABLED

// ---------- sim-vs-real fidelity on a seeded preset, both engines ----------

namespace {

/// Analyze a real 4-rank run of one engine on the tiny preset, via the
/// same JSON round trip `gnbody perf report` takes.
analysis::Report real_report(bool async_mode) {
  static const wl::SampledDataset dataset = wl::synthesize(wl::tiny_spec(), 21);
  pipeline::PipelineConfig config;
  config.k = wl::tiny_spec().k;
  const std::size_t nranks = 4;
  const pipeline::TaskSet tasks = pipeline::run_serial(dataset.reads, config, nranks);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  rt::World world(nranks);
  core::EngineConfig engine_config;
  world.run([&](rt::Rank& rank) {
    if (async_mode) {
      core::async_align(rank, dataset.reads, tasks.bounds, tasks.per_rank[rank.id()],
                        engine_config);
    } else {
      core::bsp_align(rank, dataset.reads, tasks.bounds, tasks.per_rank[rank.id()],
                      engine_config);
    }
  });
  std::ostringstream out;
  tracer.write_json(out);
  tracer.disable();
  return analysis::analyze(analysis::load_trace(out.str()));
}

/// Analyze the matched-config simulation: same preset and seed, the
/// threaded_host machine at the same rank count, calibrated cost model.
analysis::Report sim_report(bool async_mode) {
  static const core::CostCalibration calibration = core::calibrate_cost_model(21, 0.05);
  const wl::SimWorkload workload = wl::model_workload(wl::tiny_spec(), 1.0, 21);
  const sim::MachineParams machine = sim::threaded_host(4);
  const sim::SimAssignment assignment = sim::assign(workload, machine.total_ranks());
  sim::SimOptions options;
  options.trace = true;
  options.calibration = calibration;

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  if (async_mode) {
    sim::simulate_async(machine, assignment, options);
  } else {
    sim::simulate_bsp(machine, assignment, options);
  }
  std::ostringstream out;
  tracer.write_json(out);
  tracer.disable();
  return analysis::analyze(analysis::load_trace(out.str()));
}

}  // namespace

class FidelityEngine : public ::testing::TestWithParam<bool> {};

TEST_P(FidelityEngine, MatchedConfigScoreIsBounded) {
  const bool async_mode = GetParam();
  const analysis::Report real = real_report(async_mode);
  const analysis::Report sim = sim_report(async_mode);
  ASSERT_EQ(real.clock, "monotonic");
  ASSERT_EQ(sim.clock, "virtual");
  ASSERT_GT(real.rank_tracks, 0u);
  ASSERT_GT(sim.rank_tracks, 0u);

  const analysis::Fidelity f = analysis::compare_fidelity(real, sim);
  ASSERT_FALSE(f.rows.empty());
  // The engine's top-level phase span must be shared between the domains.
  const char* top = async_mode ? obs::span::kAsyncAlign : obs::span::kBspAlign;
  bool saw_top = false;
  for (const analysis::FidelityRow& row : f.rows) {
    saw_top = saw_top || row.name == top;
    EXPECT_GT(row.accuracy, 0.0);
    EXPECT_LE(row.accuracy, 1.0 + 1e-12);
    EXPECT_GT(row.real_seconds, 0.0);
    EXPECT_GT(row.sim_seconds, 0.0);
  }
  EXPECT_TRUE(saw_top);
  // Deliberately loose bound: the calibrated model must land within 3
  // orders of magnitude, weighted — catching unit mistakes (ns vs us) and
  // broken stitching, not grading the cost model on a loaded CI host.
  EXPECT_GT(f.score, 1e-3);
  EXPECT_LE(f.score, 1.0 + 1e-12);

  // The same span taxonomy must come out of both clock domains with a
  // non-degenerate critical path on each side.
  EXPECT_FALSE(real.critical_path.empty());
  EXPECT_FALSE(sim.critical_path.empty());
  EXPECT_GT(real.critical_path_seconds, 0.0);
  EXPECT_GT(sim.critical_path_seconds, 0.0);
  EXPECT_LE(real.critical_path_seconds, real.total_seconds * 1.5 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, FidelityEngine, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "async" : "bsp";
                         });

// ---------- ring-drop accounting end to end ----------

TEST(TraceDrops, WorldRunExportsDropCounterMetric) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(/*buffer_capacity=*/16);
  rt::World world(2);
  world.run([](rt::Rank&) {
    for (int i = 0; i < 200; ++i) {
      GNB_SPAN(obs::span::kBspRound);
    }
  });
  EXPECT_GT(tracer.dropped(), 0u);
  EXPECT_GT(world.metrics().counter(obs::metric::kTraceDropped), 0u);
  EXPECT_TRUE(analysis::counted_metric(obs::metric::kTraceDropped));
  tracer.disable();
}

#endif  // GNB_TRACE_ENABLED
