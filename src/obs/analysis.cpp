#include "obs/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/spans.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace gnb::obs::analysis {

namespace {

using json::Value;

double to_seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

const Value& expect(const Value* v, const char* what) {
  GNB_THROW_IF(v == nullptr, "perf: trace missing " << what);
  return *v;
}

std::int64_t event_ts_ns(const Value& ev) {
  const Value& ts = expect(ev.find("ts"), "event ts");
  GNB_THROW_IF(ts.kind != Value::Kind::kNumber, "perf: event ts not a number");
  // Exporters write ts as microseconds with a 3-digit ns fraction; recover
  // the integer nanosecond count exactly.
  return std::llround(ts.num * 1000.0);
}

std::uint32_t event_u32(const Value& ev, const char* key) {
  const Value& v = expect(ev.find(key), key);
  GNB_THROW_IF(v.kind != Value::Kind::kNumber, "perf: event " << key << " not a number");
  return static_cast<std::uint32_t>(v.num);
}

/// Compute self_ns and depth for a track whose spans are sorted by
/// (begin, -end): walk with an enclosing-span stack and subtract each
/// child's duration from its parent's self time.
void resolve_nesting(std::vector<Span>& spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
    if (a.end_ns != b.end_ns) return a.end_ns > b.end_ns;
    return a.name < b.name;
  });
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty() && spans[stack.back()].end_ns <= spans[i].begin_ns) {
      stack.pop_back();
    }
    spans[i].depth = static_cast<std::uint32_t>(stack.size());
    spans[i].self_ns = spans[i].duration_ns();
    if (!stack.empty()) spans[stack.back()].self_ns -= spans[i].duration_ns();
    stack.push_back(i);
  }
  for (Span& s : spans) {
    if (s.self_ns < 0) s.self_ns = 0;  // overlapping siblings, be defensive
  }
}

}  // namespace

const char* to_string(Category category) {
  switch (category) {
    case Category::kCompute: return "compute";
    case Category::kExchange: return "exchange";
    case Category::kWait: return "wait";
    case Category::kRecovery: return "recovery";
    case Category::kOverhead: return "overhead";
  }
  return "overhead";
}

Category categorize(std::string_view name) {
  using namespace std::string_view_literals;
  // Compute-carrying spans: the batch kernel (compute.batch, one per
  // BatchAligner::align call on whichever thread ran it), the local task
  // loops, and bsp.compute (its body deserializes received reads and
  // queues their alignments — the paper's "Computation (Alignment)"
  // bucket).
  if (name == span::kComputeBatch || name == span::kBspCompute ||
      name == span::kBspLocalTasks || name == span::kAsyncLocalTasks) {
    return Category::kCompute;
  }
  // Exchange is encode, ship and decode: the wire codec's frame packing
  // and decoding count with the collectives and pulls that ship them.
  if (name == span::kCollAlltoallv || name == span::kCollAlltoall || name == span::kRpcPull ||
      name == span::kBspRequestExchange || name == span::kAsyncPulls ||
      name == span::kWireCompress || name == span::kWireDecompress) {
    return Category::kExchange;
  }
  // compute.pool is the rank thread waiting for its workers, whose work
  // their own tracks already carry: compute.batch in the alignment phase,
  // stage.* in stage 2.
  if (name == span::kCollBarrier || name == span::kCollSplitBarrier ||
      name == span::kCollServiceBarrier || name == span::kCollAllgather ||
      name == span::kComputePool) {
    return Category::kWait;
  }
  if (name.starts_with("recovery."sv)) return Category::kRecovery;
  // Graph phases are compute-dominated in their self time (the exchange
  // inside them shows up as nested coll.* spans and is charged there).
  if (name.starts_with("graph."sv) || name.starts_with("stage."sv)) {
    return Category::kCompute;
  }
  return Category::kOverhead;
}

bool is_collective(std::string_view name) {
  return name == span::kCollAlltoallv || name == span::kCollAlltoall ||
         name == span::kCollAllgather || name == span::kCollBarrier ||
         name == span::kCollSplitBarrier || name == span::kCollServiceBarrier;
}

bool Track::has_collectives() const {
  for (const Span& s : spans) {
    if (is_collective(s.name)) return true;
  }
  return false;
}

std::string Track::label() const {
  std::string out = process_label.empty() ? ("pid " + std::to_string(pid)) : process_label;
  if (!thread_label.empty() && thread_label != "core 0") {
    out += " / " + thread_label;
  }
  return out;
}

Trace build_trace(std::span<const TrackEvents> tracks, std::uint64_t dropped_events) {
  Trace trace;
  trace.dropped_events = dropped_events;
  bool any_monotonic = false;
  bool any_virtual = false;
  for (const TrackEvents& in : tracks) {
    Track track;
    track.pid = in.pid;
    track.tid = in.tid;
    track.process_label = in.process_label;
    track.thread_label = in.thread_label;
    if (!in.process_label.empty()) {
      // The clock domain rides in the process label ("rank 0 [virtual]").
      if (in.process_label.find("[virtual]") != std::string::npos) {
        any_virtual = true;
      } else {
        any_monotonic = true;
      }
    }
    std::vector<Span> open;  // B-stack
    bool any = false;
    const auto touch = [&](std::int64_t ts) {
      if (!any || ts < track.first_ns) track.first_ns = ts;
      if (!any || ts > track.last_ns) track.last_ns = ts;
      any = true;
    };
    for (const TraceEvent& e : in.events) {
      touch(e.ts_ns);
      switch (e.phase) {
        case TraceEvent::Phase::kBegin: {
          Span s;
          s.name = e.name;
          s.begin_ns = e.ts_ns;
          open.push_back(std::move(s));
          break;
        }
        case TraceEvent::Phase::kEnd: {
          GNB_THROW_IF(open.empty(), "perf: unbalanced E event for " << e.name);
          Span s = std::move(open.back());
          open.pop_back();
          s.end_ns = e.ts_ns;
          GNB_THROW_IF(s.end_ns < s.begin_ns,
                       "perf: span " << s.name << " ends before it begins");
          track.spans.push_back(std::move(s));
          break;
        }
        case TraceEvent::Phase::kComplete: {
          Span s;
          s.name = e.name;
          s.begin_ns = e.ts_ns;
          s.end_ns = e.ts_ns + e.dur_ns;
          touch(s.end_ns);
          track.spans.push_back(std::move(s));
          break;
        }
        case TraceEvent::Phase::kInstant:
          ++track.instant_counts[e.name];
          break;
        case TraceEvent::Phase::kCounter:
          ++track.counter_counts[e.name];
          break;
        case TraceEvent::Phase::kAsyncBegin:
          ++track.async_pairs;
          break;
        case TraceEvent::Phase::kAsyncEnd:  // closes a kAsyncBegin; nothing to count
          break;
      }
    }
    // A ring that dropped events lost the newest ones, E events included:
    // close what is still open at the track's last timestamp. An intact
    // trace must be balanced.
    GNB_THROW_IF(!open.empty() && dropped_events == 0,
                 "perf: track (" << in.pid << "," << in.tid << ") has unclosed spans");
    for (Span& s : open) {
      s.end_ns = track.last_ns;
      track.spans.push_back(std::move(s));
    }
    resolve_nesting(track.spans);
    trace.tracks.push_back(std::move(track));
  }
  trace.clock = any_virtual ? (any_monotonic ? "mixed" : "virtual") : "monotonic";
  return trace;
}

Trace load_trace(std::string_view json_text) {
  std::string error;
  std::optional<Value> doc = json::parse(json_text, &error);
  GNB_THROW_IF(!doc, "perf: trace parse error: " << error);
  GNB_THROW_IF(doc->kind != Value::Kind::kObject, "perf: trace root is not an object");
  const Value& events = expect(doc->find("traceEvents"), "traceEvents");
  GNB_THROW_IF(events.kind != Value::Kind::kArray, "perf: traceEvents is not an array");

  std::uint64_t dropped_events = 0;
  if (const Value* other = doc->find("otherData")) {
    if (const Value* dropped = other->find("dropped_events")) {
      // Written as a string by Tracer::write_json; tolerate numbers too.
      if (dropped->kind == Value::Kind::kString) {
        dropped_events = std::strtoull(dropped->str.c_str(), nullptr, 10);
      } else if (dropped->kind == Value::Kind::kNumber) {
        dropped_events = static_cast<std::uint64_t>(dropped->num);
      }
    }
  }

  // Parse back into the tracer's own event records (names point into
  // `doc`, which outlives build_trace), then build spans through the same
  // path as in-memory events.
  std::map<std::pair<std::uint32_t, std::uint32_t>, TrackEvents> tracks;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<TraceEvent>> recorded;
  std::map<std::uint32_t, std::string> process_labels;
  for (const Value& ev : events.array) {
    GNB_THROW_IF(ev.kind != Value::Kind::kObject, "perf: trace event is not an object");
    const Value& ph = expect(ev.find("ph"), "event ph");
    const Value& name = expect(ev.find("name"), "event name");
    if (ph.str == "M") {
      // Metadata names tracks: process_name (which carries the clock-domain
      // suffix) is process-scoped, so it labels every (pid, *) track.
      const std::uint32_t pid = event_u32(ev, "pid");
      const Value* args = ev.find("args");
      const Value* label = args ? args->find("name") : nullptr;
      if (label && label->kind == Value::Kind::kString) {
        if (name.str == "process_name") {
          process_labels[pid] = label->str;
        } else if (name.str == "thread_name") {
          tracks[{pid, event_u32(ev, "tid")}].thread_label = label->str;
        }
      }
      continue;
    }
    TraceEvent e;
    if (ph.str == "B") {
      e.phase = TraceEvent::Phase::kBegin;
    } else if (ph.str == "E") {
      e.phase = TraceEvent::Phase::kEnd;
    } else if (ph.str == "X") {
      e.phase = TraceEvent::Phase::kComplete;
      if (const Value* d = ev.find("dur")) {
        GNB_THROW_IF(d->kind != Value::Kind::kNumber, "perf: X dur not a number");
        e.dur_ns = std::llround(d->num * 1000.0);
      }
    } else if (ph.str == "i" || ph.str == "I") {
      e.phase = TraceEvent::Phase::kInstant;
    } else if (ph.str == "C") {
      e.phase = TraceEvent::Phase::kCounter;
    } else if (ph.str == "b") {
      e.phase = TraceEvent::Phase::kAsyncBegin;
    } else if (ph.str == "e") {
      e.phase = TraceEvent::Phase::kAsyncEnd;
    } else {
      continue;
    }
    e.name = name.str.c_str();
    e.ts_ns = event_ts_ns(ev);
    const auto key = std::make_pair(event_u32(ev, "pid"), event_u32(ev, "tid"));
    tracks[key];  // a track exists once it has an event or a thread_name
    recorded[key].push_back(e);
  }

  std::vector<TrackEvents> in;
  in.reserve(tracks.size());
  for (auto& [key, track] : tracks) {
    track.pid = key.first;
    track.tid = key.second;
    if (auto it = process_labels.find(key.first); it != process_labels.end()) {
      track.process_label = it->second;
    }
    track.events = recorded[key];
    in.push_back(std::move(track));
  }
  return build_trace(in, dropped_events);
}

namespace {

/// The per-track ingredients of the critical path: begin/end times of each
/// collective occurrence, in program order.
struct CollectiveSchedule {
  std::vector<std::int64_t> begins;
  std::vector<std::int64_t> ends;
  std::vector<std::string> names;
};

CollectiveSchedule collect_schedule(const Track& track) {
  CollectiveSchedule sched;
  for (const Span& s : track.spans) {  // (begin, -end) sorted == program order
    if (is_collective(s.name)) {
      sched.begins.push_back(s.begin_ns);
      sched.ends.push_back(s.end_ns);
      sched.names.push_back(s.name);
    }
  }
  return sched;
}

/// Longest-self-time leaf span of `track` overlapping [lo, hi); ties break
/// by name for determinism. Falls back to "" when nothing overlaps.
std::pair<std::string, Category> dominant_in_window(const Track& track, std::int64_t lo,
                                                    std::int64_t hi) {
  std::map<std::string, std::int64_t> weight;
  for (const Span& s : track.spans) {
    if (s.end_ns <= lo || s.begin_ns >= hi) continue;
    // Clip self time proportionally to the overlap of the whole span —
    // exact clipping of self time needs child geometry; the proportional
    // estimate is deterministic and close enough to pick a dominant name.
    std::int64_t overlap = std::min(hi, s.end_ns) - std::max(lo, s.begin_ns);
    std::int64_t dur = s.duration_ns();
    std::int64_t self = dur > 0 ? (s.self_ns * overlap) / dur : s.self_ns;
    weight[s.name] += self;
  }
  std::string best;
  std::int64_t best_w = -1;
  for (const auto& [name, w] : weight) {  // name-sorted → deterministic ties
    if (w > best_w) {
      best = name;
      best_w = w;
    }
  }
  return {best, best.empty() ? Category::kOverhead : categorize(best)};
}

}  // namespace

void add_track_stats(TrackStats& stats, const Track& track) {
  for (const Span& s : track.spans) {
    ++stats.span_count;
    const Category cat = categorize(s.name);
    const double sec = to_seconds(s.self_ns);
    stats.seconds[static_cast<std::size_t>(cat)] += sec;
    if (cat != Category::kWait) stats.busy_seconds += sec;
  }
}

Report analyze(const Trace& trace) {
  Report report;
  report.clock = trace.clock;
  report.dropped_events = trace.dropped_events;

  std::int64_t extent_ns = 0;
  std::vector<std::size_t> rank_tracks;
  // The rank each track charges (index into report.ranks): a rank track
  // charges itself, and a track without collectives charges the rank track
  // with its pid (that rank's alignment workers). Simulated cores share a
  // pid but each has collectives, so each stays its own rank.
  std::vector<std::size_t> charges(trace.tracks.size(), SIZE_MAX);
  std::map<std::uint32_t, std::size_t> rank_of_pid;
  for (std::size_t i = 0; i < trace.tracks.size(); ++i) {
    const Track& track = trace.tracks[i];
    report.track_labels.push_back(track.label());
    for (const Span& s : track.spans) {
      ++report.span_counts[s.name];
      report.span_seconds[s.name] += to_seconds(s.duration_ns());
    }
    for (const auto& [name, n] : track.instant_counts) report.span_counts[name] += n;
    for (const auto& [name, n] : track.counter_counts) report.span_counts[name] += n;
    if (track.async_pairs > 0) report.span_counts[span::kRpcPull] += track.async_pairs;

    if (!track.has_collectives()) continue;
    rank_tracks.push_back(i);
    extent_ns = std::max(extent_ns, track.last_ns - track.first_ns);
    charges[i] = report.ranks.size();
    rank_of_pid.emplace(track.pid, charges[i]);
    TrackStats stats;
    stats.track = i;
    report.ranks.push_back(stats);
  }
  for (std::size_t i = 0; i < trace.tracks.size(); ++i) {
    if (charges[i] == SIZE_MAX) {
      const auto it = rank_of_pid.find(trace.tracks[i].pid);
      if (it == rank_of_pid.end()) continue;
      charges[i] = it->second;
    }
    add_track_stats(report.ranks[charges[i]], trace.tracks[i]);
  }
  report.rank_tracks = rank_tracks.size();
  report.total_seconds = to_seconds(extent_ns);
  for (const TrackStats& stats : report.ranks) {
    for (std::size_t c = 0; c < kCategories; ++c) {
      report.attribution_seconds[c] += stats.seconds[c];
    }
  }

  // Load imbalance: max/mean of per-rank compute self time (matches
  // stat::Summary::load_imbalance).
  if (!report.ranks.empty()) {
    double sum = 0, max = 0;
    for (const TrackStats& stats : report.ranks) {
      double c = stats.seconds[static_cast<std::size_t>(Category::kCompute)];
      sum += c;
      max = std::max(max, c);
    }
    double mean = sum / static_cast<double>(report.ranks.size());
    report.load_imbalance = mean > 0 ? max / mean : 1.0;
  }

  // --- Cross-rank critical path -------------------------------------------
  // Collectives occur in the same order on every rank; the k-th collective
  // completes when its last participant arrives. Between boundary k-1 and
  // k the path runs through that last arriver's timeline.
  if (!rank_tracks.empty()) {
    std::vector<CollectiveSchedule> schedules;
    std::size_t rounds = SIZE_MAX;
    for (std::size_t idx : rank_tracks) {
      schedules.push_back(collect_schedule(trace.tracks[idx]));
      rounds = std::min(rounds, schedules.back().begins.size());
    }
    std::int64_t path_ns = 0;
    for (std::size_t k = 0; k < rounds; ++k) {
      // Last arriver at collective k.
      std::size_t who = 0;
      for (std::size_t r = 1; r < schedules.size(); ++r) {
        if (schedules[r].begins[k] > schedules[who].begins[k]) who = r;
      }
      const Track& track = trace.tracks[rank_tracks[who]];
      std::int64_t lo = k == 0 ? track.first_ns : schedules[who].ends[k - 1];
      std::int64_t hi = schedules[who].begins[k];
      if (hi < lo) hi = lo;
      CriticalSegment seg;
      seg.track = rank_tracks[who];
      seg.begin_ns = lo;
      seg.end_ns = hi;
      seg.boundary = schedules[who].names[k];
      auto [name, cat] = dominant_in_window(track, lo, hi);
      seg.dominant_span = name;
      seg.category = cat;
      path_ns += hi - lo;
      // The collective itself is on the path too: charge its duration on
      // the last arriver's track as wait/exchange.
      path_ns += schedules[who].ends[k] - schedules[who].begins[k];
      report.critical_path.push_back(std::move(seg));
    }
    // Tail after the final common collective: the slowest finisher.
    if (rounds != SIZE_MAX && rounds > 0) {
      std::size_t who = 0;
      std::int64_t tail_end = 0;
      for (std::size_t r = 0; r < schedules.size(); ++r) {
        const Track& track = trace.tracks[rank_tracks[r]];
        if (track.last_ns > tail_end) {
          tail_end = track.last_ns;
          who = r;
        }
      }
      const Track& track = trace.tracks[rank_tracks[who]];
      std::int64_t lo = schedules[who].ends[rounds - 1];
      if (tail_end > lo) {
        CriticalSegment seg;
        seg.track = rank_tracks[who];
        seg.begin_ns = lo;
        seg.end_ns = tail_end;
        seg.boundary = "";
        auto [name, cat] = dominant_in_window(track, lo, tail_end);
        seg.dominant_span = name;
        seg.category = cat;
        path_ns += tail_end - lo;
        report.critical_path.push_back(std::move(seg));
      }
    }
    report.critical_path_seconds = to_seconds(path_ns);
  }
  return report;
}

bool counted_metric(std::string_view name) {
  using namespace std::string_view_literals;
  // Wall-clock, allocator, or host-dependent metrics are excluded: they
  // vary across byte-identical logical runs and would make the gate flaky.
  if (name == "fault.recovery_us"sv) return false;
  if (name.starts_with("mem."sv) || name.starts_with("cache."sv) ||
      name.starts_with("pool."sv) || name.starts_with("kernel."sv)) {
    return false;
  }
  if (name == metric::kRpcInflightMax || name == metric::kAlignScratchBytes) return false;
  return name.starts_with("exchange."sv) || name.starts_with("align."sv) ||
         name.starts_with("pipeline."sv) || name.starts_with("graph."sv) ||
         name.starts_with("fault."sv) || name.starts_with("rpc."sv) ||
         name.starts_with("trace."sv) || name.starts_with("wire."sv);
}

void merge_metrics_json(Report& report, std::string_view metrics_json) {
  std::string error;
  std::optional<Value> doc = json::parse(metrics_json, &error);
  GNB_THROW_IF(!doc, "perf: metrics parse error: " << error);
  const Value& phases = expect(doc->find("phases"), "phases");
  GNB_THROW_IF(phases.kind != Value::Kind::kArray, "perf: phases is not an array");
  for (const Value& phase : phases.array) {
    const Value* metrics = phase.find("metrics");
    if (metrics == nullptr) continue;
    for (const char* section : {"counters", "gauges"}) {
      const Value* sec = metrics->find(section);
      if (sec == nullptr || sec->kind != Value::Kind::kObject) continue;
      for (const auto& [name, value] : sec->object) {
        if (value.kind != Value::Kind::kNumber || !counted_metric(name)) continue;
        report.metrics[name] += static_cast<std::uint64_t>(value.num);
      }
    }
  }
}

Fidelity compare_fidelity(const Report& real, const Report& sim) {
  Fidelity out;
  double weighted = 0, total_weight = 0;
  for (const auto& [name, real_s] : real.span_seconds) {
    auto it = sim.span_seconds.find(name);
    if (it == sim.span_seconds.end() || it->second <= 0) {
      if (real_s > 0) out.real_only.push_back(name);
      continue;
    }
    if (real_s <= 0) {
      out.sim_only.push_back(name);
      continue;
    }
    FidelityRow row;
    row.name = name;
    row.real_seconds = real_s;
    row.sim_seconds = it->second;
    row.drift = (it->second - real_s) / real_s;
    row.accuracy = std::min(real_s, it->second) / std::max(real_s, it->second);
    double weight = std::max(real_s, it->second);
    weighted += weight * row.accuracy;
    total_weight += weight;
    out.rows.push_back(std::move(row));
  }
  for (const auto& [name, sim_s] : sim.span_seconds) {
    if (sim_s > 0 && real.span_seconds.find(name) == real.span_seconds.end()) {
      out.sim_only.push_back(name);
    }
  }
  std::sort(out.sim_only.begin(), out.sim_only.end());
  std::sort(out.rows.begin(), out.rows.end(), [](const FidelityRow& a, const FidelityRow& b) {
    double wa = std::max(a.real_seconds, a.sim_seconds);
    double wb = std::max(b.real_seconds, b.sim_seconds);
    if (wa != wb) return wa > wb;
    return a.name < b.name;
  });
  out.score = total_weight > 0 ? weighted / total_weight : 0.0;
  return out;
}

namespace {

void write_u64_map(std::ostream& out, const std::map<std::string, std::uint64_t>& m) {
  out << "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    if (!first) out << ",";
    first = false;
    json::write_string(out, name);
    out << ":" << value;
  }
  out << "}";
}

void write_seconds_map(std::ostream& out, const std::map<std::string, double>& m) {
  out << "{";
  bool first = true;
  for (const auto& [name, value] : m) {
    if (!first) out << ",";
    first = false;
    json::write_string(out, name);
    out << ":" << json::number(value);
  }
  out << "}";
}

}  // namespace

void write_report_json(std::ostream& out, const Report& report, const Fidelity* fidelity) {
  out << "{\"perf_report_version\":1,";
  out << "\"run\":{\"clock\":";
  json::write_string(out, report.clock);
  out << ",\"rank_tracks\":" << report.rank_tracks << ",\"tracks\":"
      << report.track_labels.size() << "},";

  out << "\"counted\":{\"dropped_events\":" << report.dropped_events << ",\"span_counts\":";
  write_u64_map(out, report.span_counts);
  out << ",\"metrics\":";
  write_u64_map(out, report.metrics);
  out << "},";

  out << "\"timing\":{\"total_seconds\":" << json::number(report.total_seconds)
      << ",\"critical_path_seconds\":" << json::number(report.critical_path_seconds)
      << ",\"load_imbalance\":" << json::number(report.load_imbalance)
      << ",\"attribution_seconds\":{";
  for (std::size_t c = 0; c < kCategories; ++c) {
    if (c != 0) out << ",";
    json::write_string(out, to_string(static_cast<Category>(c)));
    out << ":" << json::number(report.attribution_seconds[c]);
  }
  out << "},\"span_seconds\":";
  write_seconds_map(out, report.span_seconds);
  out << ",\"ranks\":[";
  for (std::size_t i = 0; i < report.ranks.size(); ++i) {
    const TrackStats& stats = report.ranks[i];
    if (i != 0) out << ",";
    out << "{\"track\":";
    json::write_string(out, report.track_labels[stats.track]);
    out << ",\"busy_seconds\":" << json::number(stats.busy_seconds)
        << ",\"span_count\":" << stats.span_count;
    for (std::size_t c = 0; c < kCategories; ++c) {
      out << ",";
      json::write_string(out, to_string(static_cast<Category>(c)));
      out << ":" << json::number(stats.seconds[c]);
    }
    out << "}";
  }
  out << "],\"critical_path\":[";
  for (std::size_t i = 0; i < report.critical_path.size(); ++i) {
    const CriticalSegment& seg = report.critical_path[i];
    if (i != 0) out << ",";
    out << "{\"track\":";
    json::write_string(out, report.track_labels[seg.track]);
    out << ",\"from_s\":" << json::number(to_seconds(seg.begin_ns))
        << ",\"to_s\":" << json::number(to_seconds(seg.end_ns)) << ",\"span\":";
    json::write_string(out, seg.dominant_span);
    out << ",\"category\":";
    json::write_string(out, to_string(seg.category));
    out << ",\"boundary\":";
    json::write_string(out, seg.boundary);
    out << "}";
  }
  out << "]}";

  if (fidelity != nullptr) {
    out << ",\"fidelity\":{\"score\":" << json::number(fidelity->score) << ",\"spans\":[";
    for (std::size_t i = 0; i < fidelity->rows.size(); ++i) {
      const FidelityRow& row = fidelity->rows[i];
      if (i != 0) out << ",";
      out << "{\"name\":";
      json::write_string(out, row.name);
      out << ",\"real_seconds\":" << json::number(row.real_seconds)
          << ",\"sim_seconds\":" << json::number(row.sim_seconds)
          << ",\"drift\":" << json::number(row.drift)
          << ",\"accuracy\":" << json::number(row.accuracy) << "}";
    }
    out << "],\"real_only\":[";
    for (std::size_t i = 0; i < fidelity->real_only.size(); ++i) {
      if (i != 0) out << ",";
      json::write_string(out, fidelity->real_only[i]);
    }
    out << "],\"sim_only\":[";
    for (std::size_t i = 0; i < fidelity->sim_only.size(); ++i) {
      if (i != 0) out << ",";
      json::write_string(out, fidelity->sim_only[i]);
    }
    out << "]}";
  }
  out << "}\n";
}

namespace {

std::string pct(double fraction) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << fraction * 100.0 << "%";
  return os.str();
}

}  // namespace

void print_report(std::ostream& out, const Report& report, const Fidelity* fidelity) {
  out << "clock: " << report.clock << "   rank tracks: " << report.rank_tracks
      << "   total: " << gnb::format_seconds(report.total_seconds)
      << "   critical path: " << gnb::format_seconds(report.critical_path_seconds)
      << "   load imbalance: " << json::number(report.load_imbalance) << "\n";
  if (report.dropped_events > 0) {
    out << "WARNING: trace dropped " << report.dropped_events
        << " event(s) — analysis is truncated; raise the trace-buffer capacity\n";
  }

  double attributed = 0;
  for (double s : report.attribution_seconds) attributed += s;
  {
    gnb::Table table({"rank", "compute", "exchange", "wait", "recovery", "overhead", "busy"});
    for (const TrackStats& stats : report.ranks) {
      std::vector<gnb::Table::Cell> row = {report.track_labels[stats.track]};
      for (std::size_t c = 0; c < kCategories; ++c) {
        row.push_back(gnb::format_seconds(stats.seconds[c]));
      }
      row.push_back(gnb::format_seconds(stats.busy_seconds));
      table.add_row(std::move(row));
    }
    if (attributed > 0) {
      table.add_row({"(share)", pct(report.attribution_seconds[0] / attributed),
                     pct(report.attribution_seconds[1] / attributed),
                     pct(report.attribution_seconds[2] / attributed),
                     pct(report.attribution_seconds[3] / attributed),
                     pct(report.attribution_seconds[4] / attributed), ""});
    }
    out << "\nphase attribution (self time)\n" << table.pretty();
  }

  if (!report.critical_path.empty()) {
    gnb::Table table({"segment", "track", "span", "category", "seconds", "boundary"});
    std::size_t i = 0;
    for (const CriticalSegment& seg : report.critical_path) {
      table.add_row({std::to_string(i++), report.track_labels[seg.track], seg.dominant_span,
                     std::string(to_string(seg.category)),
                     gnb::format_seconds(to_seconds(seg.end_ns - seg.begin_ns)),
                     seg.boundary.empty() ? std::string("(end)") : seg.boundary});
    }
    out << "\ncross-rank critical path\n" << table.pretty();
  }

  if (fidelity != nullptr) {
    gnb::Table table({"span", "real", "sim", "drift", "accuracy"});
    for (const FidelityRow& row : fidelity->rows) {
      table.add_row({row.name, gnb::format_seconds(row.real_seconds),
                     gnb::format_seconds(row.sim_seconds), pct(row.drift), pct(row.accuracy)});
    }
    out << "\nsim fidelity (score " << pct(fidelity->score) << ")\n" << table.pretty();
    if (!fidelity->real_only.empty() || !fidelity->sim_only.empty()) {
      out << "real-only spans:";
      for (const std::string& name : fidelity->real_only) out << " " << name;
      out << "\nsim-only spans:";
      for (const std::string& name : fidelity->sim_only) out << " " << name;
      out << "\n";
    }
  }
}

}  // namespace gnb::obs::analysis
