#pragma once
// Trace analytics: build per-(pid, tid) span trees from trace events —
// a Chrome trace-event JSON (as written by obs::Tracer for real runs or
// sim::perf_model for virtual-clock runs), or the tracer's in-memory
// buffers, through the same path — and compute the things the raw
// timeline only shows visually —
//
//  * per-phase attribution: every nanosecond of every track charged to one
//    category (alignment compute, exchange, wait/imbalance, recovery,
//    overhead) by *self time*, so nested spans never double-count. A
//    rank's alignment-worker tracks charge that rank. rt::World fills each
//    rank's stat::Breakdown with this same attribution;
//  * per-rank load-imbalance statistics (busy time, compute max/mean);
//  * the cross-rank critical path: rank timelines are stitched at
//    collective boundaries (coll.* spans occur in the same order on every
//    participating rank, an rt::World guarantee), and between boundary k-1
//    and k the path runs through the rank that *arrives last* at
//    collective k — the rank everyone else waits for;
//  * a sim-fidelity score: span-by-span relative drift between two
//    analyzed traces (a real run and its matched-config simulation).
//
// Everything here is a pure function of the input JSON: analyzing the same
// trace twice yields byte-identical PERF_report.json output, which is what
// lets `gnbody perf diff` gate CI on it (obs/perfdiff.hpp).

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace gnb::obs::analysis {

/// Attribution taxonomy. Every span name in obs/spans.hpp maps to exactly
/// one category (see categorize); kOverhead is the default for container
/// spans (bsp.align, bsp.round, ...) whose self time is bookkeeping.
/// stat::Breakdown reads compute as compute, exchange as comm, wait as sync,
/// and overhead plus recovery as overhead.
enum class Category : std::uint8_t {
  kCompute = 0,   // alignment / graph kernels
  kExchange = 1,  // visible communication (alltoallv, pulls)
  kWait = 2,      // barrier waiting — imbalance made visible
  kRecovery = 3,  // crash/rejoin/corruption recovery (recovery.*)
  kOverhead = 4,  // container-span self time: traversal, dispatch
};
inline constexpr std::size_t kCategories = 5;

[[nodiscard]] const char* to_string(Category category);

/// Category of a span name from the obs/spans.hpp taxonomy. Unknown names
/// fall into kOverhead.
[[nodiscard]] Category categorize(std::string_view name);

/// True for the rt::World collective spans the critical path stitches at.
[[nodiscard]] bool is_collective(std::string_view name);

/// One reconstructed duration span (from a B/E pair or an X event).
struct Span {
  std::string name;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;  // duration minus nested children
  std::uint32_t depth = 0;   // nesting depth within the track

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - begin_ns; }
};

/// One (pid, tid) timeline, spans sorted by (begin, -end) — parents before
/// children.
struct Track {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::string process_label;
  std::string thread_label;
  std::vector<Span> spans;
  std::map<std::string, std::uint64_t> instant_counts;
  std::map<std::string, std::uint64_t> counter_counts;
  std::uint64_t async_pairs = 0;  // "b" events (one per rpc pull batch)
  std::int64_t first_ns = 0;
  std::int64_t last_ns = 0;

  /// A rank track for stitching purposes: it entered at least one
  /// collective (the driver track and empty tracks do not).
  [[nodiscard]] bool has_collectives() const;
  [[nodiscard]] std::string label() const;
};

/// A parsed trace document.
struct Trace {
  std::vector<Track> tracks;  // sorted by (pid, tid)
  std::uint64_t dropped_events = 0;
  std::string clock;  // "monotonic", "virtual", or "mixed"
};

/// The events of one track in recording order, as obs::TraceBuffer holds
/// them. `process_label` is the exported process name, clock domain
/// included ("rank 0 [monotonic]").
struct TrackEvents {
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::string process_label;
  std::string thread_label;
  std::span<const TraceEvent> events;
};

/// Build span trees from recorded events, `tracks` in (pid, tid) order
/// (as Tracer::buffers() lists them); load_trace parses JSON into the same
/// records and ends here. With `dropped_events` > 0 (the ring lost its
/// newest events) spans still open at a track's end are closed at its last
/// timestamp; otherwise unbalanced B/E nesting throws gnb::Error.
[[nodiscard]] Trace build_trace(std::span<const TrackEvents> tracks,
                                std::uint64_t dropped_events = 0);

/// Parse a Chrome trace-event JSON document into span trees. Throws
/// gnb::Error on malformed JSON or unbalanced B/E nesting.
[[nodiscard]] Trace load_trace(std::string_view json_text);

/// One segment of the cross-rank critical path: between two collective
/// boundaries the path runs through `track` (index into Trace::tracks),
/// dominated by its longest-self-time leaf span in the window.
struct CriticalSegment {
  std::size_t track = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::string boundary;       // collective name this segment ends at ("" = phase end)
  std::string dominant_span;  // leaf span covering the most self time
  Category category = Category::kOverhead;
};

/// Per-rank attribution and activity statistics: the rank's own track
/// plus its worker tracks.
struct TrackStats {
  std::size_t track = 0;             // the rank track
  double seconds[kCategories] = {};  // self-time by category
  double busy_seconds = 0;           // sum of non-wait categories
  std::uint64_t span_count = 0;
};

/// Charge every span of `track` to `stats` by the self time of its
/// category. analyze() and rt::World::run attribute through this one call.
void add_track_stats(TrackStats& stats, const Track& track);

/// The full analysis of one trace.
struct Report {
  // --- counted section: deterministic for a fixed seed, gated by diff ---
  std::map<std::string, std::uint64_t> span_counts;  // opens per name (B/X/i/C/b)
  std::uint64_t dropped_events = 0;
  std::map<std::string, std::uint64_t> metrics;  // curated counters (see counted_metric)

  // --- timing section: wall-clock (or virtual-clock) derived, warn-only ---
  std::string clock;
  std::size_t rank_tracks = 0;
  double total_seconds = 0;  // extent of the longest rank track
  double attribution_seconds[kCategories] = {};
  std::map<std::string, double> span_seconds;  // total duration per name
  std::vector<TrackStats> ranks;               // one per rank track
  double load_imbalance = 1;                   // max/mean of per-rank compute
  std::vector<CriticalSegment> critical_path;
  double critical_path_seconds = 0;
  std::vector<std::string> track_labels;  // for rendering segments
};

/// Analyze a parsed trace: attribution, imbalance, critical path.
[[nodiscard]] Report analyze(const Trace& trace);

/// True if a metrics-registry counter name is deterministic for a fixed
/// seed (exchange/pipeline/graph/fault counts) as opposed to wall-clock or
/// allocator derived (mem.*, cache.*, pool.*, kernel lane stats,
/// fault.recovery_us). Only counted metrics enter the gated section of
/// PERF_report.json.
[[nodiscard]] bool counted_metric(std::string_view name);

/// Merge the counters of a `gnbody --metrics` JSON document into
/// `report.metrics` (curated through counted_metric). Throws gnb::Error on
/// malformed input.
void merge_metrics_json(Report& report, std::string_view metrics_json);

/// Span-by-span fidelity between two analyzed traces (real vs simulated at
/// matched config). Per shared span name, accuracy = min/max of the two
/// total durations (1 = perfect); the score is the duration-weighted mean
/// accuracy. Names carrying duration on one side only are listed.
struct FidelityRow {
  std::string name;
  double real_seconds = 0;
  double sim_seconds = 0;
  double drift = 0;     // (sim - real) / real, signed
  double accuracy = 0;  // min/max in (0, 1]
};
struct Fidelity {
  std::vector<FidelityRow> rows;  // sorted by descending weight
  std::vector<std::string> real_only, sim_only;
  double score = 0;  // weighted mean accuracy in [0, 1]
};
[[nodiscard]] Fidelity compare_fidelity(const Report& real, const Report& sim);

/// Write the deterministic PERF_report.json document: a "counted" object
/// (gated by `gnbody perf diff`) and a "timing" object (warn-only), plus
/// an optional "fidelity" object when `fidelity` is non-null.
void write_report_json(std::ostream& out, const Report& report,
                       const Fidelity* fidelity = nullptr);

/// Render the human tables (attribution per rank, critical path, fidelity)
/// to `out`.
void print_report(std::ostream& out, const Report& report,
                  const Fidelity* fidelity = nullptr);

}  // namespace gnb::obs::analysis
