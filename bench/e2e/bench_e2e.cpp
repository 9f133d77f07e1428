// bench_e2e — end-to-end benchmark of the real threaded runtime: reads in,
// PAF out, through the shipped `gnbody overlap` binary. README.md in this
// directory lists the workloads, the metrics and their bounds.
//
//   bench_e2e --workload ont-bsp --seed 3 --seconds 20 --out DIR
//       Untraced run. Spawns `gnbody overlap` in a closed loop (one
//       invocation at a time, at least 3, until --seconds have passed) and
//       reports the median wall time, CPU time and peak RSS seen from the
//       parent, plus the in-process set-up time.
//   bench_e2e --workload ont-bsp --seed 3 --seconds 20 --traced --out DIR
//       Traced run. Repeats the CLI's composition in-process with one
//       bench.* span per layer and reads per-layer seconds back from the
//       written trace (DIR/trace_<workload>.json).
//   bench_e2e --smoke --out DIR
//       Every workload shape on the tiny dataset, with every output check.
//
// Every PAF is hashed (FNV-1a 64) and compared with an in-process reference
// pass and, at the pinned seed, with expected.json. The last line on stdout
// is the result: {"correct", "attempted", "failed", "metrics"}.

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "align/batch.hpp"
#include "align/paf.hpp"
#include "core/async.hpp"
#include "core/bsp.hpp"
#include "core/calibrate.hpp"
#include "kmer/bella_filter.hpp"
#include "kmer/candidates.hpp"
#include "kmer/counter.hpp"
#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "pipeline/distributed.hpp"
#include "pipeline/pipeline.hpp"
#include "rt/fault.hpp"
#include "rt/world.hpp"
#include "seq/fasta.hpp"
#include "stat/breakdown.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/wire.hpp"
#include "wl/genome.hpp"
#include "wl/presets.hpp"
#include "wl/sampler.hpp"

extern char** environ;

using namespace gnb;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Generation parameters of one input set; everything not set here is a
/// `gnbody simulate` default.
struct Dataset {
  wl::GenomeParams genome;
  wl::ReadSimParams reads;
  std::uint32_t k = 17;
};

Dataset make_dataset(std::size_t genome, double coverage, double error, double mean_length) {
  Dataset data;
  data.genome.length = genome;
  data.genome.repeat_fraction = 0.05;
  data.reads.coverage = coverage;
  data.reads.error_rate = error;
  data.reads.mean_length = mean_length;
  return data;
}

Dataset tiny_dataset() {
  const wl::DatasetSpec spec = wl::tiny_spec();
  return Dataset{spec.genome, spec.reads, spec.k};
}

/// One workload: a dataset plus every knob of the `gnbody overlap` call.
/// ranks x threads never exceeds the host's CPUs (checked at start).
struct Workload {
  std::string name;
  Dataset data;
  std::string engine;  // bsp | async
  std::size_t ranks = 4;
  std::size_t threads = 1;
  std::string faults;  // gnbody --faults spec; empty = fault-free
};

std::vector<Workload> workloads(bool tiny) {
  // Long, noisy reads (ONT-like) and long, accurate reads (HiFi-like), at
  // the shapes `gnbody simulate` uses, scaled so one invocation takes a
  // few seconds on 4 cores.
  const Dataset ont = tiny ? tiny_dataset() : make_dataset(80'000, 20, 0.12, 1'500);
  const Dataset hifi = tiny ? tiny_dataset() : make_dataset(80'000, 15, 0.03, 12'000);
  // ont-async runs 2 ranks x 2 threads: at 4 x 1 a rank computing its local
  // tasks inline stops serving pulls, and a peer's poll-counted timeout
  // aborts the run in a few percent of invocations on a loaded host.
  return {
      {"ont-bsp", ont, "bsp", 4, 1, ""},
      {"ont-async", ont, "async", 2, 2, ""},
      {"hifi-pool", hifi, "bsp", 2, 2, ""},
      {"ont-crash", ont, "bsp", 4, 1, "seed=5,crash@2:2"},
  };
}

// gnbody overlap's default alignment filter, pinned on its command line so
// a changed default cannot silently change a workload.
constexpr std::int32_t kMinScore = 50;
constexpr std::uint32_t kMinOverlap = 100;

/// Where the genome's repeats fall and the read layout (lengths, positions,
/// strands, error positions) come from this fixed stream; --seed draws the
/// bases. Neither wl::generate_genome's repeat loop nor wl::sample_reads
/// consumes random numbers according to the bases, so every seed asks for
/// the same overlap work on a different sequence, and a run measures the
/// program rather than the luck of the sampling. (With the repeats drawn
/// from --seed as well, the hifi PAF size moved by up to 35 % between seeds.)
constexpr std::uint64_t kLayoutSeed = 0x5EED;

void write_inputs(const Dataset& data, std::uint64_t seed, const std::string& path) {
  wl::GenomeParams bases_only = data.genome;
  bases_only.repeat_fraction = 0;
  Xoshiro256 bases_rng(seed);
  std::vector<std::uint8_t> codes = wl::generate_genome(bases_only, bases_rng).unpack();
  // wl::generate_genome's repeat model, on the layout stream.
  Xoshiro256 layout_rng(kLayoutSeed);
  const wl::GenomeParams& g = data.genome;
  const std::size_t repeat_len = std::min(g.repeat_length, g.length / 4);
  const auto target =
      static_cast<std::size_t>(g.repeat_fraction * static_cast<double>(g.length));
  for (std::size_t copied = 0; g.length > 2 * g.repeat_length && copied < target;) {
    const std::size_t src = layout_rng.below(g.length - repeat_len);
    const std::size_t dst = layout_rng.below(g.length - repeat_len);
    if (src == dst) continue;
    for (std::size_t i = 0; i < repeat_len; ++i) codes[dst + i] = codes[src + i];
    copied += repeat_len;
  }
  const seq::Sequence genome = seq::Sequence::from_codes(codes);
  const wl::SampledDataset sampled = wl::sample_reads(genome, data.reads, layout_rng);
  std::ofstream file(path);
  GNB_THROW_IF(!file, "cannot open output: " << path);
  seq::FastaWriter writer(file);
  for (const auto& read : sampled.reads.reads())
    writer.write(seq::FastaRecord{read.name, "", read.sequence});
  file.close();
  GNB_THROW_IF(!file, "write failed: " << path);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
};

// The order here is the order of the printed tables and the result JSON;
// BENCHMARK.json lists the same names and units (checked by --smoke).
constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MiB"}, {"setup_s", "s"}};

constexpr Metric kPerLayer[] = {
    {"seq.parse_s", "s"},
    {"rt.world_s", "s"},
    {"pipeline.partition_s", "s"},
    {"kmer.count_s", "s"},
    {"kmer.filter_s", "s"},
    {"kmer.index_s", "s"},
    {"kmer.join_s", "s"},
    {"kmer.distinct", "count"},
    {"kmer.retained", "count"},
    {"kmer.pairs", "count"},
    {"kmer.tasks", "count"},
    {"kmer.join_yield", "ratio"},
    {"pipeline.assign_s", "s"},
    {"pipeline.task_imbalance", "ratio"},
    {"pipeline.dist23_s", "s"},
    {"core.world_run_s", "s"},
    {"core.align_s", "s"},
    {"core.merge_s", "s"},
    {"core.rank_imbalance", "ratio"},
    {"core.compute_s", "s"},
    {"core.overhead_s", "s"},
    {"core.comm_s", "s"},
    {"core.sync_s", "s"},
    {"core.tasks", "count"},
    {"core.accept_rate", "ratio"},
    {"core.messages", "count"},
    {"core.rounds", "count"},
    {"core.wire_sent_bytes", "B"},
    {"core.wire_raw_bytes", "B"},
    {"core.cache_hit_rate", "ratio"},
    {"core.pool_tasks", "count"},
    {"core.align_1r_s", "s"},
    {"core.scaling_eff", "ratio"},
    {"align.cells", "count"},
    {"align.lane_occupancy", "ratio"},
    {"align.kernel_s", "s"},
    {"align.kernel_mcells_s", "Mcells/s"},
    {"align.paf_write_s", "s"},
    {"recovery.tasks_reexecuted", "count"},
    {"recovery.s", "s"},
    {"recovery.checkpoint_bytes", "B"},
    {"bench.traced_wall_s", "s"},
    {"bench.layer_residual_pct", "%"},
    {"bench.trace_overhead_pct", "%"},
    {"bench.trace_dropped", "count"},
};

/// Every sample of every metric in one run; a run reports the medians.
using Samples = std::map<std::string, std::vector<double>>;

double median(std::vector<double> values) {
  GNB_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Files and output digests
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GNB_THROW_IF(!in, "cannot open input: " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// What identifies a PAF: FNV-1a 64 over its bytes, and its line count.
struct PafDigest {
  std::uint64_t fnv = 0;
  std::uint64_t records = 0;
  bool operator==(const PafDigest&) const = default;
};

PafDigest digest_paf(const std::string& path) {
  const std::string text = read_file(path);
  const std::span<const std::uint8_t> bytes(reinterpret_cast<const std::uint8_t*>(text.data()),
                                            text.size());
  return {wire::checksum(bytes),
          static_cast<std::uint64_t>(std::count(text.begin(), text.end(), '\n'))};
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(value));
  return buf;
}

/// The PAF every check compares against: the in-process reference pass,
/// and at the pinned seed also expected.json. A negative control flips one
/// bit of both, so every comparison must fail.
struct Expected {
  PafDigest reference;
  std::optional<PafDigest> pinned;

  [[nodiscard]] bool matches(const PafDigest& paf) const {
    return paf == reference && (!pinned || paf == *pinned);
  }
};

std::optional<PafDigest> pinned_digest(const std::string& workload, std::uint64_t seed) {
  const std::optional<obs::json::Value> doc = obs::json::parse(read_file(GNB_BENCH_EXPECTED));
  GNB_THROW_IF(!doc, "malformed " << GNB_BENCH_EXPECTED);
  const obs::json::Value* pinned_seed = doc->find("seed");
  const obs::json::Value* table = doc->find("workloads");
  GNB_THROW_IF(!pinned_seed || !table, "expected.json needs \"seed\" and \"workloads\"");
  if (static_cast<std::uint64_t>(pinned_seed->num) != seed) return std::nullopt;
  const obs::json::Value* entry = table->find(workload);
  if (entry == nullptr) return std::nullopt;
  const obs::json::Value* fnv = entry->find("fnv");
  const obs::json::Value* records = entry->find("records");
  GNB_THROW_IF(!fnv || !records, "expected.json entry for " << workload << " is incomplete");
  return PafDigest{std::stoull(fnv->str, nullptr, 16),
                   static_cast<std::uint64_t>(records->num)};
}

seq::ReadStore load_fasta(const std::string& path) {
  std::ifstream in(path);
  GNB_THROW_IF(!in, "cannot open input: " << path);
  seq::ReadStore store;
  seq::FastaReader reader(in);
  while (auto record = reader.next()) store.add(record->name, std::move(record->sequence));
  GNB_THROW_IF(store.empty(), "no reads in " << path);
  return store;
}

// ---------------------------------------------------------------------------
// The CLI, from outside the process
// ---------------------------------------------------------------------------

std::string format_number(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

std::vector<std::string> cli_args(const Workload& w, const std::string& fasta,
                                  const std::string& paf) {
  std::vector<std::string> args = {
      GNB_BENCH_GNBODY, "overlap", "--in", fasta, "--out", paf,
      "--engine", w.engine,
      "--ranks", std::to_string(w.ranks),
      "--compute-threads", std::to_string(w.threads),
      "--k", std::to_string(w.data.k),
      "--coverage", format_number(w.data.reads.coverage),
      "--error", format_number(w.data.reads.error_rate),
      "--min-score", std::to_string(kMinScore),
      "--min-overlap", std::to_string(kMinOverlap),
      "--batch-aligner", "auto",
      "--wire-compression", "auto",
      "--ranks-per-node", "1"};
  if (!w.faults.empty()) {
    args.emplace_back("--faults");
    args.push_back(w.faults);
  }
  return args;
}

struct Invocation {
  double wall_s = 0;
  double cpu_s = 0;
  double peak_rss_mb = 0;
  bool ok = false;  // exited 0 before the deadline
};

/// Spawn one `gnbody overlap` and reap it. Wall time runs from spawn to
/// reap on the parent's steady clock; CPU time and peak RSS come from
/// wait4. GNB_* variables are scrubbed from the child's environment because
/// they set CLI defaults. A child still running at `timeout_s` is killed.
Invocation spawn_cli(const std::vector<std::string>& args, const std::string& log_path,
                     double timeout_s) {
  std::vector<char*> argv;
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (char** entry = environ; *entry != nullptr; ++entry)
    if (std::string_view(*entry).rfind("GNB_", 0) != 0) envp.push_back(*entry);
  envp.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                   0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const Clock::time_point start = Clock::now();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), envp.data());
  posix_spawn_file_actions_destroy(&actions);
  GNB_THROW_IF(rc != 0, "cannot spawn " << argv[0] << ": " << std::strerror(rc));

  // The watchdog kills only while the child is unreaped: waitid(WNOWAIT)
  // observes the exit without reaping, so its pid cannot be recycled yet.
  std::mutex mutex;
  std::condition_variable exited_cv;
  bool exited = false;
  bool killed = false;
  std::thread watchdog([&] {
    std::unique_lock lock(mutex);
    if (!exited_cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                            [&] { return exited; })) {
      ::kill(pid, SIGKILL);
      killed = true;
    }
  });
  siginfo_t info{};
  while (waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT) == -1 &&
         errno == EINTR) {
  }
  {
    std::lock_guard lock(mutex);
    exited = true;
  }
  exited_cv.notify_all();
  watchdog.join();
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) == -1 && errno == EINTR) {
  }

  Invocation inv;
  inv.wall_s = seconds_since(start);
  inv.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
  inv.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
  inv.ok = !killed && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return inv;
}

// ---------------------------------------------------------------------------
// The CLI's composition, in-process
// ---------------------------------------------------------------------------

pipeline::PipelineConfig pipeline_config(const Workload& w) {
  const kmer::ReliableBounds band = kmer::reliable_bounds(
      kmer::BellaParams{w.data.reads.coverage, w.data.reads.error_rate, w.data.k, 1e-3});
  pipeline::PipelineConfig config;
  config.k = w.data.k;
  config.lo = band.lo;
  config.hi = band.hi;
  return config;
}

core::EngineConfig engine_config(std::size_t threads) {
  core::EngineConfig engine;
  engine.filter = align::AlignmentFilter{kMinScore, kMinOverlap};
  engine.proto.compute_threads = threads;
  engine.proto.batch_aligner = proto::BatchAlignerKind::kAuto;
  engine.proto.wire_compression = proto::WireCompression::kAuto;
  engine.proto.ranks_per_node = 1;
  return engine;
}

core::EngineResult run_engine(rt::Rank& rank, const Workload& w, const seq::ReadStore& store,
                              const std::vector<seq::ReadId>& bounds,
                              const std::vector<kmer::AlignTask>& tasks,
                              const core::EngineConfig& engine) {
  return w.engine == "async" ? core::async_align(rank, store, bounds, tasks, engine)
                             : core::bsp_align(rank, store, bounds, tasks, engine);
}

/// Counters of one in-process pass.
struct Pass {
  PafDigest paf;
  std::uint64_t distinct = 0, retained = 0, pairs = 0, tasks = 0, records = 0;
  double task_imbalance = 1;
  stat::Summary summary;
  std::uint64_t tasks_done = 0, cells = 0, messages = 0, rounds = 0;
  std::uint64_t wire_sent = 0, wire_raw = 0;
};

/// gnbody overlap's composition with one public call per layer, each inside
/// a bench.<layer> span on the calling thread (no-ops while the tracer is
/// off). A layer frees what it built — or what it was the last to use —
/// inside its own span, so teardown is charged where it happens.
Pass run_pass(const Workload& w, bool with_faults, const std::string& fasta,
              const std::string& paf_path) {
  Pass pass;
  {
    GNB_SPAN("bench.pass");
    seq::ReadStore store;
    {
      GNB_SPAN("bench.seq.parse");
      store = load_fasta(fasta);
    }
    std::vector<seq::ReadId> bounds;
    {
      GNB_SPAN("bench.pipeline.partition");
      bounds = pipeline::compute_bounds(store, w.ranks);
    }
    const pipeline::PipelineConfig config = pipeline_config(w);
    auto counter = std::make_unique<kmer::KmerCounter>();
    {
      GNB_SPAN("bench.kmer.count");
      counter->count_reads(store.reads(), config.k);
    }
    pass.distinct = counter->distinct();
    auto retained = std::make_unique<kmer::KmerSet>();
    {
      GNB_SPAN("bench.kmer.filter");
      for (const kmer::Kmer& km : counter->retained(config.lo, config.hi)) retained->insert(km);
      counter.reset();
    }
    pass.retained = retained->size();
    std::unique_ptr<kmer::PostingIndex> index;
    {
      GNB_SPAN("bench.kmer.index");
      index = std::make_unique<kmer::PostingIndex>(*retained, config.k, config.keep_frac);
      for (const auto& read : store.reads()) index->add_read(read);
    }
    std::vector<kmer::AlignTask> tasks;
    {
      GNB_SPAN("bench.kmer.join");
      for (const auto& [km, occs] : index->lists())
        pass.pairs += occs.size() * (occs.size() - 1) / 2;
      std::vector<std::size_t> lengths(store.size());
      for (const auto& read : store.reads()) lengths[read.id] = read.length();
      tasks = kmer::generate_tasks(*index, lengths);
      index.reset();
      retained.reset();
    }
    pass.tasks = tasks.size();
    std::vector<std::vector<kmer::AlignTask>> per_rank;
    {
      GNB_SPAN("bench.pipeline.assign");
      per_rank = pipeline::assign_tasks(tasks, bounds);
      std::vector<kmer::AlignTask>().swap(tasks);
    }
    std::size_t most = 0;
    for (const auto& part : per_rank) most = std::max(most, part.size());
    const double mean_tasks = static_cast<double>(pass.tasks) / static_cast<double>(w.ranks);
    pass.task_imbalance = pass.tasks == 0 ? 1.0 : static_cast<double>(most) / mean_tasks;

    const core::EngineConfig engine = engine_config(w.threads);
    std::unique_ptr<rt::World> world;
    {
      GNB_SPAN("bench.rt.world");
      world = std::make_unique<rt::World>(w.ranks);
      if (with_faults && !w.faults.empty()) world->set_faults(rt::FaultPlan::parse(w.faults));
    }
    std::vector<core::EngineResult> results(w.ranks);
    {
      GNB_SPAN("bench.core.world_run");
      world->run([&](rt::Rank& rank) {
        GNB_SPAN("bench.core.align");
        results[rank.id()] = run_engine(rank, w, store, bounds, per_rank[rank.id()], engine);
      });
      pass.summary = stat::summarize(world->breakdowns());
      world.reset();
      std::vector<std::vector<kmer::AlignTask>>().swap(per_rank);
    }
    std::vector<align::AlignmentRecord> records;
    {
      GNB_SPAN("bench.core.merge");
      for (const core::EngineResult& part : results) {
        pass.tasks_done += part.tasks_done;
        pass.cells += part.cells;
        pass.messages += part.messages;
        pass.rounds = std::max(pass.rounds, part.rounds);
        pass.wire_sent += part.exchange_bytes_sent;
        pass.wire_raw += part.wire_raw_bytes;
        records.insert(records.end(), part.accepted.begin(), part.accepted.end());
      }
      std::vector<core::EngineResult>().swap(results);
      std::sort(records.begin(), records.end(),
                [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
                  return std::tie(x.read_a, x.read_b) < std::tie(y.read_a, y.read_b);
                });
    }
    pass.records = records.size();
    {
      GNB_SPAN("bench.align.paf_write");
      std::ofstream file(paf_path);
      GNB_THROW_IF(!file, "cannot open output: " << paf_path);
      align::write_paf(file, records, store, engine.xdrop.scoring);
      file.close();
      GNB_THROW_IF(!file, "write failed: " << paf_path);
      std::vector<align::AlignmentRecord>().swap(records);
    }
  }
  pass.paf = digest_paf(paf_path);
  return pass;
}

/// Stage-1 setup before any k-mer work: parse the FASTA, partition it, and
/// construct, run empty and join a World of the workload's rank count.
double setup_once(const Workload& w, const std::string& fasta) {
  const Clock::time_point start = Clock::now();
  {
    const seq::ReadStore store = load_fasta(fasta);
    const std::vector<seq::ReadId> bounds = pipeline::compute_bounds(store, w.ranks);
    rt::World world(w.ranks);
    world.run([](rt::Rank&) {});
  }
  return seconds_since(start);
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

// Large enough that no workload drops events (bench.trace_dropped stays 0).
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;

struct TraceEpoch {
  obs::analysis::Trace trace;
  std::uint64_t dropped = 0;
};

/// Record `body` with the driver thread bound to track pid `driver_pid`
/// (after the rank pids, as gnbody does), write the trace to `path`, and
/// load it back with the analysis loader.
template <typename Body>
TraceEpoch trace_epoch(const std::string& path, std::size_t driver_pid, Body&& body) {
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable(kTraceCapacity);
  obs::Tracer::bind(tracer.buffer(static_cast<std::uint32_t>(driver_pid), 0, "driver", "main"));
  body();
  obs::Tracer::bind(nullptr);
  {
    std::ofstream file(path);
    GNB_THROW_IF(!file, "cannot open output: " << path);
    tracer.write_json(file);
    file.close();
    GNB_THROW_IF(!file, "write failed: " << path);
  }
  const std::uint64_t dropped = tracer.dropped();
  tracer.disable();
  return {obs::analysis::load_trace(read_file(path)), dropped};
}

/// Longest duration, in seconds, of any span named `name` on any track.
double longest_span(const obs::analysis::Trace& trace, std::string_view name) {
  std::int64_t longest = 0;
  for (const auto& track : trace.tracks)
    for (const auto& span : track.spans)
      if (span.name == name) longest = std::max(longest, span.duration_ns());
  return 1e-9 * static_cast<double>(longest);
}

/// Per-layer samples of one traced pass: the self time of every bench.*
/// span on the driver track, the slowest rank's engine call, and how far
/// the layers fall short of covering the pass.
void add_trace_samples(const obs::analysis::Trace& trace, std::size_t driver_pid,
                       Samples& samples) {
  double pass_s = 0;
  double layers_s = 0;
  for (const auto& track : trace.tracks) {
    if (track.pid != driver_pid) continue;
    for (const auto& span : track.spans) {
      if (span.name == "bench.pass") {
        pass_s = 1e-9 * static_cast<double>(span.duration_ns());
      } else if (span.name.rfind("bench.", 0) == 0) {
        const double self_s = 1e-9 * static_cast<double>(span.self_ns);
        samples[span.name.substr(6) + "_s"].push_back(self_s);
        layers_s += self_s;
      }
    }
  }
  GNB_THROW_IF(pass_s <= 0, "traced pass has no bench.pass span");
  samples["bench.traced_wall_s"].push_back(pass_s);
  samples["bench.layer_residual_pct"].push_back(100.0 * std::abs(pass_s - layers_s) / pass_s);
  samples["core.align_s"].push_back(longest_span(trace, "bench.core.align"));
}

void add_pass_samples(const Pass& pass, Samples& samples) {
  const auto count = [](std::uint64_t value) { return static_cast<double>(value); };
  const stat::Summary& summary = pass.summary;
  samples["kmer.distinct"].push_back(count(pass.distinct));
  samples["kmer.retained"].push_back(count(pass.retained));
  samples["kmer.pairs"].push_back(count(pass.pairs));
  samples["kmer.tasks"].push_back(count(pass.tasks));
  samples["kmer.join_yield"].push_back(pass.pairs == 0 ? 0.0
                                                       : count(pass.tasks) / count(pass.pairs));
  samples["pipeline.task_imbalance"].push_back(pass.task_imbalance);
  samples["core.rank_imbalance"].push_back(summary.load_imbalance);
  samples["core.compute_s"].push_back(summary.compute_avg);
  samples["core.overhead_s"].push_back(summary.overhead_avg);
  samples["core.comm_s"].push_back(summary.comm_avg);
  samples["core.sync_s"].push_back(summary.sync_avg);
  samples["core.tasks"].push_back(count(pass.tasks_done));
  samples["core.accept_rate"].push_back(
      pass.tasks == 0 ? 0.0 : count(pass.records) / count(pass.tasks));
  samples["core.messages"].push_back(count(pass.messages));
  samples["core.rounds"].push_back(count(pass.rounds));
  samples["core.wire_sent_bytes"].push_back(count(pass.wire_sent));
  samples["core.wire_raw_bytes"].push_back(count(pass.wire_raw));
  samples["core.cache_hit_rate"].push_back(summary.compute_layer.hit_rate());
  samples["core.pool_tasks"].push_back(count(summary.compute_layer.pool_tasks));
  samples["align.cells"].push_back(count(pass.cells));
  samples["align.lane_occupancy"].push_back(summary.compute_layer.lane_occupancy());
  samples["recovery.tasks_reexecuted"].push_back(count(summary.faults.tasks_reexecuted));
  samples["recovery.s"].push_back(summary.faults.recovery_seconds);
  samples["recovery.checkpoint_bytes"].push_back(count(summary.faults.checkpoint_bytes));
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Options {
  std::uint64_t seed = 3;
  double seconds = 0;
  std::string out;
  bool negative_control = false;
  bool tiny = false;  // smoke mode: no pinned digests
  std::size_t min_invocations = 3;
};

struct Result {
  std::string workload;
  bool traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Expected expected;
  /// An invocation running past this counts as failed: 5x the in-process
  /// reference pass, which does the same work.
  double timeout_s = 0;
  Samples samples;
  std::uint64_t reads = 0;
  std::uint64_t bases = 0;

  [[nodiscard]] bool correct() const { return attempted > 0 && failed == 0; }
};

constexpr std::size_t kSetupRepsPerInvocation = 3;

/// Generate the inputs and the expected PAF for one run. The reference is
/// a fault-free in-process pass, so ont-crash is held to the fault-free
/// output.
std::string prepare(const Workload& w, const Options& opt, Result& result) {
  std::filesystem::create_directories(opt.out);
  const std::string fasta = opt.out + "/" + w.name + ".fa";
  write_inputs(w.data, opt.seed, fasta);
  const seq::ReadStore store = load_fasta(fasta);
  result.reads = store.size();
  result.bases = store.total_bases();
  const Clock::time_point start = Clock::now();
  result.expected.reference = run_pass(w, false, fasta, opt.out + "/reference.paf").paf;
  result.timeout_s = std::max(10.0, 5.0 * seconds_since(start));
  if (!opt.tiny) result.expected.pinned = pinned_digest(w.name, opt.seed);
  if (opt.negative_control) {
    result.expected.reference.fnv ^= 1;
    if (result.expected.pinned) result.expected.pinned->fnv ^= 1;
  }
  return fasta;
}

/// One checked CLI invocation; returns its timing, or nullopt when it failed.
std::optional<Invocation> invoke_checked(const Workload& w, const std::string& fasta,
                                         const Options& opt, Result& result) {
  const std::string paf = opt.out + "/" + w.name + ".paf";
  const std::string log = opt.out + "/" + w.name + ".log";
  std::filesystem::remove(paf);
  const Invocation inv = spawn_cli(cli_args(w, fasta, paf), log, result.timeout_s);
  ++result.attempted;
  if (!inv.ok || !std::filesystem::exists(paf) || !result.expected.matches(digest_paf(paf))) {
    ++result.failed;
    const std::string kept = log + ".failed-" + std::to_string(result.attempted);
    std::filesystem::copy_file(log, kept, std::filesystem::copy_options::overwrite_existing);
    std::fprintf(stderr, "bench_e2e: %s invocation %llu failed (log: %s)\n", w.name.c_str(),
                 static_cast<unsigned long long>(result.attempted), kept.c_str());
    return std::nullopt;
  }
  return inv;
}

Result run_untraced(const Workload& w, const Options& opt) {
  Result result;
  result.workload = w.name;
  const std::string fasta = prepare(w, opt, result);

  // Set-up takes a few milliseconds, and the host's speed drifts over
  // seconds, so its repetitions are spread between the invocations.
  setup_once(w, fasta);  // warm-up
  const Clock::time_point start = Clock::now();
  while (result.attempted < opt.min_invocations || seconds_since(start) < opt.seconds) {
    for (std::size_t i = 0; i < kSetupRepsPerInvocation; ++i)
      result.samples["setup_s"].push_back(setup_once(w, fasta));
    const std::optional<Invocation> inv = invoke_checked(w, fasta, opt, result);
    if (!inv) continue;
    result.samples["wall_s"].push_back(inv->wall_s);
    result.samples["cpu_s"].push_back(inv->cpu_s);
    result.samples["peak_rss_mb"].push_back(inv->peak_rss_mb);
  }
  return result;
}

/// The traced run's one-off measurements, in a trace epoch of their own:
/// stage 2/3 distributed (with task-set parity against the serial union),
/// the engine at one rank, and the kernel alone.
void run_extras(const Workload& w, const std::string& fasta, const std::string& trace_path,
                Result& result, std::uint64_t& dropped) {
  const seq::ReadStore store = load_fasta(fasta);
  const pipeline::PipelineConfig config = pipeline_config(w);
  const pipeline::TaskSet serial = pipeline::run_serial(store, config, w.ranks);
  const std::vector<kmer::AlignTask> all = serial.sorted_union();
  const std::vector<seq::ReadId> one_rank = pipeline::compute_bounds(store, 1);

  // Every 8th task, decoded up front so the timed span holds only the
  // kernel, batched 32 at a time as core::TaskRunner batches.
  std::map<std::pair<seq::ReadId, bool>, std::vector<std::uint8_t>> codes;
  const auto codes_of = [&](seq::ReadId id, bool reverse) -> std::span<const std::uint8_t> {
    auto [it, inserted] = codes.try_emplace({id, reverse});
    if (inserted) it->second = seq::oriented_codes(store.get(id).sequence, reverse);
    return it->second;
  };
  std::vector<align::AlignTask> kernel_tasks;
  for (std::size_t i = 0; i < all.size(); i += 8)
    kernel_tasks.push_back(
        {codes_of(all[i].a, false), codes_of(all[i].b, all[i].seed.b_reversed), all[i].seed});
  const std::unique_ptr<align::BatchAligner> aligner =
      align::make_batch_aligner(proto::BatchAlignerKind::kAuto, core::EngineConfig{}.xdrop);

  std::vector<std::vector<kmer::AlignTask>> distributed(w.ranks);
  const TraceEpoch epoch = trace_epoch(trace_path, w.ranks, [&] {
    {
      rt::World world(w.ranks);
      world.run([&](rt::Rank& rank) {
        GNB_SPAN("bench.pipeline.dist23");
        distributed[rank.id()] = pipeline::run_distributed(rank, store, config, serial.bounds);
      });
    }
    {
      rt::World world(1);
      const core::EngineConfig engine = engine_config(1);
      world.run([&](rt::Rank& rank) {
        GNB_SPAN("bench.core.align_1r");
        (void)run_engine(rank, w, store, one_rank, all, engine);
      });
    }
    GNB_SPAN("bench.align.kernel");
    const std::span<const align::AlignTask> view(kernel_tasks);
    for (std::size_t begin = 0; begin < view.size(); begin += 32)
      (void)aligner->align(view.subspan(begin, std::min<std::size_t>(32, view.size() - begin)));
  });
  dropped += epoch.dropped;

  std::vector<kmer::AlignTask> merged;
  for (const auto& part : distributed) merged.insert(merged.end(), part.begin(), part.end());
  const auto by_pair = [](const kmer::AlignTask& x, const kmer::AlignTask& y) {
    return std::tie(x.a, x.b) < std::tie(y.a, y.b);
  };
  std::sort(merged.begin(), merged.end(), by_pair);
  const auto same_task = [](const kmer::AlignTask& x, const kmer::AlignTask& y) {
    return x.a == y.a && x.b == y.b && x.seed.a_pos == y.seed.a_pos &&
           x.seed.b_pos == y.seed.b_pos && x.seed.length == y.seed.length &&
           x.seed.b_reversed == y.seed.b_reversed;
  };
  ++result.attempted;
  if (!std::equal(merged.begin(), merged.end(), all.begin(), all.end(), same_task)) {
    ++result.failed;
    std::fprintf(stderr, "bench_e2e: %s: run_distributed task set differs from run_serial\n",
                 w.name.c_str());
  }

  const double kernel_s = longest_span(epoch.trace, "bench.align.kernel");
  result.samples["pipeline.dist23_s"].push_back(
      longest_span(epoch.trace, "bench.pipeline.dist23"));
  result.samples["core.align_1r_s"].push_back(longest_span(epoch.trace, "bench.core.align_1r"));
  result.samples["align.kernel_s"].push_back(kernel_s);
  result.samples["align.kernel_mcells_s"].push_back(
      kernel_s > 0 ? 1e-6 * static_cast<double>(aligner->stats().cells) / kernel_s : 0.0);
}

Result run_traced(const Workload& w, const Options& opt) {
  Result result;
  result.workload = w.name;
  result.traced = true;
  const std::string fasta = prepare(w, opt, result);
  const std::string trace_path = opt.out + "/trace_" + w.name + ".json";

  // CLI invocations and traced passes alternate, so the trace overhead
  // compares runs made under the same host conditions.
  std::vector<double> cli_wall;
  std::uint64_t dropped = 0;
  const Clock::time_point start = Clock::now();
  do {
    if (const auto inv = invoke_checked(w, fasta, opt, result))
      cli_wall.push_back(inv->wall_s);
    Pass pass;
    const TraceEpoch epoch = trace_epoch(trace_path, w.ranks, [&] {
      pass = run_pass(w, true, fasta, opt.out + "/traced.paf");
    });
    dropped += epoch.dropped;
    ++result.attempted;
    if (!result.expected.matches(pass.paf)) {
      ++result.failed;
      std::fprintf(stderr, "bench_e2e: %s: traced pass PAF differs\n", w.name.c_str());
    }
    add_trace_samples(epoch.trace, w.ranks, result.samples);
    add_pass_samples(pass, result.samples);
  } while (seconds_since(start) < opt.seconds);

  run_extras(w, fasta, opt.out + "/trace_" + w.name + "_extras.json", result, dropped);

  Samples& s = result.samples;
  const double parallelism = static_cast<double>(w.ranks * w.threads);
  s["core.scaling_eff"].push_back(median(s["core.align_1r_s"]) /
                                  (parallelism * median(s["core.align_s"])));
  s["bench.trace_overhead_pct"].push_back(
      cli_wall.empty() ? 0.0
                       : 100.0 * (median(s["bench.traced_wall_s"]) / median(cli_wall) - 1.0));
  s["bench.trace_dropped"].push_back(static_cast<double>(dropped));
  return result;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::span<const Metric> metrics_of(const Result& result) {
  if (result.traced) return kPerLayer;
  return kEndToEnd;
}

/// A metric's samples; empty when every operation that would give one failed.
const std::vector<double>& samples_of(const Result& result, const Metric& metric) {
  static const std::vector<double> kNone;
  const auto it = result.samples.find(metric.name);
  return it == result.samples.end() ? kNone : it->second;
}

/// The reported value: the median, or NaN (written as 0) without samples.
double value_of(const Result& result, const Metric& metric) {
  const std::vector<double>& values = samples_of(result, metric);
  return values.empty() ? std::nan("") : median(values);
}

void print_table(const Result& result, const Options& opt) {
  std::printf("%s seed %llu (%llu reads, %llu bases): %s run, %llu attempted, %llu failed; "
              "expected PAF %llu records, fnv %s\n",
              result.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              static_cast<unsigned long long>(result.reads),
              static_cast<unsigned long long>(result.bases),
              result.traced ? "traced" : "untraced",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.expected.reference.records),
              hex(result.expected.reference.fnv).c_str());
  std::printf("  %-26s %-9s %4s %14s %14s %14s\n", "metric", "unit", "n", "median", "min",
              "max");
  for (const Metric& metric : metrics_of(result)) {
    const std::vector<double>& values = samples_of(result, metric);
    if (values.empty()) {
      std::printf("  %-26s %-9s %4d %14s\n", metric.name, metric.unit, 0, "-");
      continue;
    }
    std::printf("  %-26s %-9s %4zu %14.6g %14.6g %14.6g\n", metric.name, metric.unit,
                values.size(), median(values), *std::min_element(values.begin(), values.end()),
                *std::max_element(values.begin(), values.end()));
  }
}

void write_metrics(std::ostream& out, const Result& result) {
  out << "{";
  bool first = true;
  for (const Metric& metric : metrics_of(result)) {
    out << (first ? "" : ", ");
    first = false;
    obs::json::write_string(out, metric.name);
    out << ": {\"value\": " << obs::json::number(value_of(result, metric)) << ", \"unit\": ";
    obs::json::write_string(out, metric.unit);
    out << "}";
  }
  out << "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
  }
  return "unknown";
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

/// The detailed run record compare.py reads: every sample, the host, the
/// kernel calibration and the commit.
void write_record(const std::string& path, const Result& result, const Workload& w,
                  const Options& opt, const std::string& git_sha) {
  const core::CostCalibration calibration = core::calibrate_cost_model();
  std::ofstream out(path);
  GNB_THROW_IF(!out, "cannot open output: " << path);
  out << "{\"workload\": ";
  obs::json::write_string(out, w.name);
  out << ", \"seed\": " << opt.seed << ", \"traced\": " << (result.traced ? "true" : "false")
      << ", \"seconds\": " << obs::json::number(opt.seconds) << ", \"git_sha\": ";
  obs::json::write_string(out, git_sha);
  out << ",\n \"host\": {\"nproc\": " << host_cpus() << ", \"cpu_model\": ";
  obs::json::write_string(out, cpu_model());
  out << ", \"avx2\": " << (align::cpu_supports_avx2() ? "true" : "false") << ", \"backend\": ";
  obs::json::write_string(out, align::batch_aligner_report(proto::BatchAlignerKind::kAuto));
  out << "},\n \"calibration\": {\"cells_per_second\": "
      << obs::json::number(calibration.cells_per_second)
      << ", \"overhead_per_task\": " << obs::json::number(calibration.overhead_per_task)
      << "},\n \"input\": {\"reads\": " << result.reads << ", \"bases\": " << result.bases
      << "}, \"paf\": {\"records\": " << result.expected.reference.records << ", \"fnv\": \""
      << hex(result.expected.reference.fnv) << "\"},\n \"correct\": "
      << (result.correct() ? "true" : "false") << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ",\n \"metrics\": ";
  write_metrics(out, result);
  out << ",\n \"samples\": {";
  bool first = true;
  for (const Metric& metric : metrics_of(result)) {
    out << (first ? "" : ", ");
    first = false;
    obs::json::write_string(out, metric.name);
    out << ": [";
    const std::vector<double>& values = samples_of(result, metric);
    for (std::size_t i = 0; i < values.size(); ++i)
      out << (i ? ", " : "") << obs::json::number(values[i]);
    out << "]";
  }
  out << "}}\n";
  out.close();
  GNB_THROW_IF(!out, "write failed: " << path);
}

void print_result_line(const Result& result) {
  std::ostringstream line;
  line << "{\"correct\": " << (result.correct() ? "true" : "false")
       << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
       << ", \"metrics\": ";
  write_metrics(line, result);
  line << "}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
}

const Workload& find_workload(const std::vector<Workload>& all, const std::string& name) {
  for (const Workload& w : all)
    if (w.name == name) return w;
  std::ostringstream message;
  message << "unknown workload '" << name << "' (one of:";
  for (const Workload& w : all) message << " " << w.name;
  throw Error(message.str() + ")");
}

void check_threads(const Workload& w) {
  const std::size_t cpus = host_cpus();
  GNB_THROW_IF(w.ranks * w.threads > cpus,
               w.name << " needs " << w.ranks * w.threads
                      << " threads (ranks x compute threads) but this host has " << cpus
                      << " CPUs");
}

/// BENCHMARK.json must list exactly the metrics this program reports.
bool manifest_matches() {
  const std::optional<obs::json::Value> doc = obs::json::parse(read_file(GNB_BENCH_MANIFEST));
  GNB_THROW_IF(!doc, "malformed " << GNB_BENCH_MANIFEST);
  const auto same = [&](const char* key, std::span<const Metric> metrics) {
    const obs::json::Value* list = doc->find(key);
    if (list == nullptr || list->array.size() != metrics.size()) return false;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const obs::json::Value* name = list->array[i].find("name");
      const obs::json::Value* unit = list->array[i].find("unit");
      if (!name || !unit || name->str != metrics[i].name || unit->str != metrics[i].unit)
        return false;
    }
    return true;
  };
  return same("end_to_end", kEndToEnd) && same("per_layer", kPerLayer);
}

/// Every workload shape on the tiny dataset: both runs must be correct,
/// the traced layers must cover the pass and drop nothing, and a negative
/// control must fail every operation.
int run_smoke(Options opt) {
  opt.tiny = true;
  opt.seconds = 0;
  opt.min_invocations = 1;
  bool ok = manifest_matches();
  if (!ok) std::fprintf(stderr, "smoke: BENCHMARK.json metrics differ from bench_e2e's\n");
  const std::string root = opt.out;
  for (const Workload& w : workloads(true)) {
    check_threads(w);
    opt.out = root + "/" + w.name;
    opt.negative_control = false;
    const Result untraced = run_untraced(w, opt);
    const Result traced = run_traced(w, opt);
    opt.negative_control = true;
    const Result negative = run_untraced(w, opt);
    const double residual = median(traced.samples.at("bench.layer_residual_pct"));
    const double dropped = traced.samples.at("bench.trace_dropped").front();
    const bool pass = untraced.correct() && traced.correct() && residual < 5.0 &&
                      dropped == 0 && negative.failed == negative.attempted;
    std::printf("smoke %-10s untraced %llu/%llu ok, traced %llu/%llu ok, residual %.2f%%, "
                "dropped %.0f, negative control %llu/%llu failed: %s\n",
                w.name.c_str(),
                static_cast<unsigned long long>(untraced.attempted - untraced.failed),
                static_cast<unsigned long long>(untraced.attempted),
                static_cast<unsigned long long>(traced.attempted - traced.failed),
                static_cast<unsigned long long>(traced.attempted), residual, dropped,
                static_cast<unsigned long long>(negative.failed),
                static_cast<unsigned long long>(negative.attempted), pass ? "ok" : "FAILED");
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("bench_e2e", "End-to-end reads->PAF benchmark of gnbody overlap (see README.md)");
  auto workload =
      cli.opt<std::string>("workload", "", "ont-bsp | ont-async | hifi-pool | ont-crash");
  auto seed = cli.opt<std::uint64_t>("seed", 3, "input seed (draws the genome)");
  auto seconds =
      cli.opt<double>("seconds", 0, "measure for this long (at least 3 invocations)");
  auto out = cli.opt<std::string>("out", "e2e-out", "directory for inputs, outputs and traces");
  auto traced = cli.flag("traced", "per-layer traced run instead of the untraced CLI loop");
  auto smoke = cli.flag("smoke", "every workload shape on the tiny dataset, with all checks");
  auto negative =
      cli.flag("negative-control", "perturb the expected digest: every operation must fail");
  auto json_out =
      cli.opt<std::string>("json-out", "", "also write the detailed run record here");
  auto git_sha = cli.opt<std::string>("git-sha", "unknown", "commit recorded in --json-out");
  cli.parse(argc, argv);
  // Library progress logs would interleave with the result tables.
  log::set_level(log::Level::kWarn);

  try {
    Options opt;
    opt.seed = *seed;
    opt.seconds = *seconds;
    opt.out = std::filesystem::absolute(*out).string();
    opt.negative_control = *negative;
    if (*smoke) return run_smoke(opt);

    const std::vector<Workload> all = workloads(false);
    const Workload& w = find_workload(all, *workload);
    check_threads(w);
    const Result result = *traced ? run_traced(w, opt) : run_untraced(w, opt);
    print_table(result, opt);
    if (!json_out->empty()) write_record(*json_out, result, w, opt, *git_sha);
    print_result_line(result);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 2;
  }
}
