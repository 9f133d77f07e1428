// gnbody — command-line front end, usable in genomics pipelines:
//
//   gnbody simulate  --genome 100000 --coverage 20 --out reads.fa
//       synthesize a long-read dataset to FASTA
//   gnbody overlap   --in reads.fa --out overlaps.paf
//       many-to-many overlap: k-mer pipeline + BSP/Async engine, PAF out
//   gnbody assemble  --in reads.fa --out contigs.fa [--gfa graph.gfa]
//       overlap + distributed string graph + unitigs, contigs to FASTA
//       (phases 4-6 run over rt::World; byte-identical to the serial
//       oracle at any --ranks, and under --faults crash injection)
//   gnbody correct   --in reads.fa --out corrected.fa
//       consensus error correction from the overlap pileup
//
// The paper's stated goal: "the code can be used for many-to-many long
// read alignment with general inputs" — this binary is that entry point.
//
//   gnbody sim       --dataset human-ccs --nodes 64 --engine bsp [--assembly]
//       cost-model simulation of one engine phase at cluster scale;
//       --assembly models the distributed graph phases instead
//
// `overlap` and `sim` both take --trace out.json / --metrics out.json:
// the same span taxonomy lands in the same Perfetto JSON, stamped with the
// monotonic clock (real run) or the model's virtual clock (sim run).
//
//   gnbody perf report <trace.json> / gnbody perf diff <base> <cand>
//       consume those traces: critical path, attribution, sim fidelity,
//       and the CI regression gate (obs/analysis.hpp, obs/perfdiff.hpp)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <tuple>

#include "align/batch.hpp"
#include "align/paf.hpp"
#include "core/async.hpp"
#include "core/bsp.hpp"
#include "core/calibrate.hpp"
#include "correct/consensus.hpp"
#include "graph/assembler.hpp"
#include "graph/gfa.hpp"
#include "graph/overlap_graph.hpp"
#include "kmer/bella_filter.hpp"
#include "kmer/kmer.hpp"
#include "obs/analysis.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perfdiff.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "pipeline/assembly.hpp"
#include "pipeline/distributed.hpp"
#include "pipeline/pipeline.hpp"
#include "proto/config.hpp"
#include "rt/world.hpp"
#include "seq/fasta.hpp"
#include "sim/assignment.hpp"
#include "sim/machine.hpp"
#include "sim/perf_model.hpp"
#include "sim/report.hpp"
#include "stat/breakdown.hpp"
#include "util/error.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "wl/genome.hpp"
#include "wl/presets.hpp"
#include "wl/sampler.hpp"

using namespace gnb;

namespace {

/// Flush the recording tracer to `path` (none when empty: an in-memory
/// trace for --breakdown), warn loudly when the ring dropped events (the
/// trace — and any breakdown or perf report built from it — is truncated),
/// then disable tracing.
void finish_trace(const std::string& path, const char* what) {
  obs::Tracer& tracer = obs::Tracer::instance();
  if (!path.empty()) {
    std::ofstream file(path);
    GNB_THROW_IF(!file, "cannot open output: " << path);
    tracer.write_json(file);
  }
  const std::uint64_t dropped = tracer.dropped();
  if (dropped > 0) {
    log::warn("trace ring dropped ", dropped,
              " event(s) — the trace is truncated and perf analysis will undercount; "
              "re-run with a larger trace buffer or a smaller workload");
  }
  tracer.disable();
  if (!path.empty()) log::info("wrote ", what, " to ", path);
}

seq::ReadStore load_fasta(const std::string& path) {
  std::ifstream in(path);
  GNB_THROW_IF(!in, "cannot open input: " << path);
  const bool fastq = path.size() > 3 && (path.ends_with(".fq") || path.ends_with(".fastq"));
  seq::ReadStore store = seq::read_records(in, fastq);
  GNB_THROW_IF(store.empty(), "no reads in " << path);
  return store;
}

proto::BatchAlignerKind parse_batch_aligner_cli(const std::string& name) {
  const auto kind = proto::parse_batch_aligner(name);
  GNB_THROW_IF(!kind, "unknown batch aligner '" << name << "' (use scalar | simd | auto)");
  return *kind;
}

proto::WireCompression parse_wire_compression_cli(const std::string& name) {
  const auto mode = proto::parse_wire_compression(name);
  GNB_THROW_IF(!mode, "unknown wire compression '" << name
                                                   << "' (use off | pack2 | pack2-rle | auto)");
  return *mode;
}

struct OverlapRun {
  std::vector<align::AlignmentRecord> records;
  /// The stage-1 read partition (nranks+1 boundaries) — the owner map the
  /// distributed graph phases shard by.
  std::vector<seq::ReadId> bounds;
  /// The scoring the engine actually aligned with — PAF residue-match
  /// counts are derived from it, not from a hard-wired default.
  align::Scoring scoring;
  /// Measured phase breakdown + protocol counters, reduced through the same
  /// stat sink the simulator reports use.
  stat::Summary summary;
  /// Phase-boundary metrics snapshots for --metrics (obs/metrics.hpp).
  obs::MetricsRegistry pipeline_metrics;
  obs::MetricsRegistry align_metrics;
};

OverlapRun run_overlap(const seq::ReadStore& reads, std::size_t ranks, std::uint32_t k,
                       double coverage, double error, const std::string& engine_name,
                       std::int32_t min_score, std::uint32_t min_overlap,
                       std::size_t compute_threads, const rt::FaultPlan& faults = {},
                       proto::BatchAlignerKind batch_aligner = proto::BatchAlignerKind::kAuto,
                       proto::WireCompression wire_compression =
                           proto::wire_compression_from_env(proto::WireCompression::kAuto),
                       std::size_t ranks_per_node = 1) {
  const auto band =
      kmer::reliable_bounds(kmer::BellaParams{coverage, error, k, 1e-3});
  log::info("k-mer filter: k=", k, ", reliable band [", band.lo, ", ", band.hi, "]");
  pipeline::PipelineConfig config;
  config.k = k;
  config.lo = band.lo;
  config.hi = band.hi;
  config.threads = compute_threads;
  // Stage 2/3 runs on its own fault-free World of the same rank count, so
  // the fault plan's steps count from the alignment phase on. Its k-mer
  // kernels use the rank's compute threads, as the alignment does.
  const pipeline::TaskSet tasks = pipeline::run_distributed(reads, config, ranks);
  log::info("discovered ", tasks.total_tasks(), " alignment tasks");

  OverlapRun run;
  run.bounds = tasks.bounds;
  run.pipeline_metrics.add(obs::metric::kPipelineReads, reads.size());
  run.pipeline_metrics.add(obs::metric::kPipelineBases, reads.total_bases());
  run.pipeline_metrics.add(obs::metric::kPipelineTasks, tasks.total_tasks());

  core::EngineConfig engine;
  engine.filter = align::AlignmentFilter{min_score, min_overlap};
  engine.proto.compute_threads = compute_threads;
  engine.proto.batch_aligner = batch_aligner;
  engine.proto.wire_compression = wire_compression;
  engine.proto.ranks_per_node = ranks_per_node;
  log::info(align::batch_aligner_report(batch_aligner));
  log::info("wire compression: ", proto::to_string(wire_compression),
            ranks_per_node > 1 ? " (two-level aggregation on)" : "");
  run.scoring = engine.xdrop.scoring;
  const bool async_mode = engine_name == "async";
  GNB_THROW_IF(!async_mode && engine_name != "bsp",
               "unknown engine '" << engine_name << "' (use bsp or async)");

  rt::World world(ranks);
  if (faults.enabled()) {
    world.set_faults(faults);
    log::info("fault injection on; replay with --faults ", faults.to_spec());
  }
  std::vector<core::EngineResult> per_rank(ranks);
  world.run([&](rt::Rank& rank) {
    per_rank[rank.id()] =
        async_mode ? core::async_align(rank, reads, tasks.bounds, tasks.per_rank[rank.id()],
                                       engine)
                   : core::bsp_align(rank, reads, tasks.bounds, tasks.per_rank[rank.id()],
                                     engine);
  });
  run.summary = stat::summarize(world.breakdowns());
  run.align_metrics.merge(world.metrics());
  for (auto& part : per_rank) {
    run.summary.rounds = std::max(run.summary.rounds, part.rounds);
    run.summary.messages += part.messages;
    run.summary.exchange_bytes += part.exchange_bytes_received;
    run.summary.wire_sent_bytes += part.exchange_bytes_sent;
    run.summary.wire_raw_bytes += part.wire_raw_bytes;
    run.records.insert(run.records.end(), part.accepted.begin(), part.accepted.end());
  }
  std::sort(run.records.begin(), run.records.end(),
            [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
              return std::tie(x.read_a, x.read_b) < std::tie(y.read_a, y.read_b);
            });
  log::info("accepted ", run.records.size(), " overlaps");
  return run;
}

int cmd_simulate(int argc, char** argv) {
  Cli cli("gnbody simulate", "Synthesize a long-read dataset to FASTA");
  auto genome_len = cli.opt<std::uint64_t>("genome", 100'000, "genome length (bases)");
  auto coverage = cli.opt<double>("coverage", 20, "sequencing depth");
  auto error = cli.opt<double>("error", 0.12, "per-base error rate");
  auto mean_len = cli.opt<double>("mean-length", 1'500, "mean read length");
  auto repeats = cli.opt<double>("repeats", 0.05, "genome repeat fraction");
  auto seed = cli.opt<std::uint64_t>("seed", 1, "RNG seed");
  auto out = cli.opt<std::string>("out", "reads.fa", "output FASTA path");
  cli.parse(argc, argv);

  Xoshiro256 rng(*seed);
  wl::GenomeParams gp;
  gp.length = *genome_len;
  gp.repeat_fraction = *repeats;
  const seq::Sequence genome = wl::generate_genome(gp, rng);
  wl::ReadSimParams rp;
  rp.coverage = *coverage;
  rp.error_rate = *error;
  rp.mean_length = *mean_len;
  const wl::SampledDataset dataset = wl::sample_reads(genome, rp, rng);

  std::ofstream file(*out);
  GNB_THROW_IF(!file, "cannot open output: " << *out);
  seq::FastaWriter writer(file);
  for (const auto& read : dataset.reads.reads())
    writer.write(seq::FastaRecord{read.name, "", read.sequence});
  log::info("wrote ", dataset.reads.size(), " reads (", dataset.reads.total_bases(),
            " bases) to ", *out);
  return 0;
}

int cmd_overlap(int argc, char** argv) {
  Cli cli("gnbody overlap", "Many-to-many long-read overlap, PAF output");
  auto in = cli.opt<std::string>("in", "reads.fa", "input FASTA/FASTQ");
  auto out = cli.opt<std::string>("out", "overlaps.paf", "output PAF path");
  auto ranks = cli.opt<std::uint64_t>("ranks", 4, "SPMD ranks (threads)");
  auto k = cli.opt<std::uint64_t>("k", 17, "k-mer length (<= 32)");
  auto coverage = cli.opt<double>("coverage", 20, "assumed depth for the BELLA filter");
  auto error = cli.opt<double>("error", 0.12, "assumed error rate for the BELLA filter");
  auto engine = cli.opt<std::string>("engine", "bsp", "engine: bsp | async");
  auto min_score = cli.opt<std::int64_t>("min-score", 50, "minimum alignment score");
  auto min_overlap = cli.opt<std::uint64_t>("min-overlap", 100, "minimum overlap length");
  auto compute_threads = cli.opt<std::uint64_t>(
      "compute-threads", proto::compute_threads_from_env(1),
      "threads per rank for the k-mer stage and alignment workers (1 = inline serial; "
      "env GNB_COMPUTE_THREADS)");
  auto batch_aligner = cli.opt<std::string>(
      "batch-aligner", proto::to_string(proto::batch_aligner_from_env()),
      "alignment kernel backend: scalar | simd | auto (env GNB_BATCH_ALIGNER)");
  auto wire_compression = cli.opt<std::string>(
      "wire-compression", proto::to_string(proto::wire_compression_from_env()),
      "read payload codec: off | pack2 | pack2-rle | auto (env GNB_WIRE_COMPRESSION)");
  auto ranks_per_node = cli.opt<std::uint64_t>(
      "ranks-per-node", 1,
      "co-located ranks per node for two-level exchange aggregation (1 = flat; "
      "> 1 needs --engine bsp and no --faults)");
  auto breakdown = cli.flag("breakdown", "print the measured phase breakdown table");
  auto trace = cli.opt<std::string>(
      "trace", "", "write a Perfetto/Chrome trace-event JSON (monotonic clock)");
  auto metrics = cli.opt<std::string>("metrics", "", "write a metrics-snapshot JSON");
  auto faults = cli.opt<std::string>(
      "faults", "",
      "fault spec: a bare seed, or seed=..,delay=P:T,dup=P,reorder=P,straggle=P:U"
      ",crash@R:S (kill rank R at its S-th fault step)"
      ",partition@A|B:T[:D] (cut the A<->B link for D receiver ticks from tick T)"
      ",restart@R:S (rank R comes back, skipping S admission gates)"
      ",corrupt@R:K:S (corrupt rank R's S-th durable record of kind K: 1 = manifest,"
      " 2 = log record; all repeatable)");
  cli.parse(argc, argv);
  kmer::check_k(*k);
  pipeline::check_nranks(*ranks);

  rt::FaultPlan plan;
  if (!faults->empty()) plan = rt::FaultPlan::parse(*faults);
  proto::check_ranks_per_node(*ranks_per_node, *engine == "bsp", plan.enabled());

  // Open the recording epoch before the pipeline runs and bind a driver
  // track (pid = nranks, after the rank pids) so the driver's stage spans
  // land on their own Perfetto row next to the rank timelines. The phase
  // breakdown is a view of the trace, so --breakdown records one in
  // memory when no --trace file is asked for.
  const bool tracing = !trace->empty() || *breakdown;
  if (tracing) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.enable();
    obs::Tracer::bind(
        tracer.buffer(static_cast<std::uint32_t>(*ranks), 0, "driver", "main"));
  }

  const seq::ReadStore reads = load_fasta(*in);
  log::info("loaded ", reads.size(), " reads (", reads.total_bases(), " bases)");
  const auto run = run_overlap(reads, *ranks, static_cast<std::uint32_t>(*k), *coverage,
                               *error, *engine, static_cast<std::int32_t>(*min_score),
                               static_cast<std::uint32_t>(*min_overlap), *compute_threads,
                               plan, parse_batch_aligner_cli(*batch_aligner),
                               parse_wire_compression_cli(*wire_compression),
                               *ranks_per_node);

  if (tracing) {
    obs::Tracer::bind(nullptr);
    finish_trace(*trace, "trace");
  }
  if (!metrics->empty()) {
    std::ostringstream info;
    info << "{\"command\":\"overlap\",\"engine\":";
    obs::json::write_string(info, *engine);
    info << ",\"input\":";
    obs::json::write_string(info, *in);
    info << ",\"ranks\":" << *ranks << ",\"k\":" << *k << ",\"reads\":" << reads.size()
         << ",\"clock\":\"monotonic\"}";
    const obs::MetricsPhase phases[] = {{"pipeline", &run.pipeline_metrics},
                                        {"align", &run.align_metrics}};
    std::ofstream file(*metrics);
    GNB_THROW_IF(!file, "cannot open output: " << *metrics);
    obs::write_metrics_json(file, info.str(), phases);
    log::info("wrote metrics to ", *metrics);
  }

  if (*breakdown) {
    Table table(stat::breakdown_headers({"engine"}));
    stat::add_breakdown_row(table, {*engine}, run.summary);
    table.print("measured phase breakdown (" + std::to_string(*ranks) + " ranks)");
    Table compute_table(stat::compute_headers({"engine"}));
    stat::add_compute_row(compute_table, {*engine}, run.summary);
    compute_table.print("compute layer (read cache + alignment pool)");
    Table kernel_table(stat::kernel_headers({"engine"}));
    stat::add_kernel_row(kernel_table, {*engine}, run.summary);
    kernel_table.print("alignment kernel (batch aligner)");
  }
  if (plan.enabled()) {
    Table table(stat::fault_headers({"engine"}));
    stat::add_fault_row(table, {*engine}, run.summary);
    table.print("fault-injection counters (seed " + std::to_string(plan.seed) + ")");
  }
  std::ofstream file(*out);
  GNB_THROW_IF(!file, "cannot open output: " << *out);
  align::write_paf(file, run.records, reads, run.scoring);
  log::info("wrote ", run.records.size(), " PAF records to ", *out);
  return 0;
}

int cmd_assemble(int argc, char** argv) {
  Cli cli("gnbody assemble",
          "Overlap + distributed string graph + unitigs, contigs to FASTA");
  auto in = cli.opt<std::string>("in", "reads.fa", "input FASTA/FASTQ");
  auto out = cli.opt<std::string>("out", "contigs.fa", "output FASTA path");
  auto ranks = cli.opt<std::uint64_t>("ranks", 4, "SPMD ranks (threads)");
  auto k = cli.opt<std::uint64_t>("k", 15, "k-mer length (<= 32)");
  auto coverage = cli.opt<double>("coverage", 20, "assumed depth for the BELLA filter");
  auto error = cli.opt<double>("error", 0.12, "assumed error rate");
  auto min_overlap = cli.opt<std::uint64_t>("min-overlap", 250, "graph edge threshold");
  auto compute_threads = cli.opt<std::uint64_t>(
      "compute-threads", proto::compute_threads_from_env(1),
      "threads per rank for the k-mer stage and alignment workers (1 = inline serial; "
      "env GNB_COMPUTE_THREADS)");
  auto gfa = cli.opt<std::string>("gfa", "", "also write the string graph as GFA1");
  auto trace = cli.opt<std::string>(
      "trace", "", "write a Perfetto/Chrome trace-event JSON (monotonic clock)");
  auto metrics = cli.opt<std::string>("metrics", "", "write a metrics-snapshot JSON");
  auto faults = cli.opt<std::string>(
      "faults", "", "fault spec for the graph phases (same syntax as overlap)");
  cli.parse(argc, argv);
  kmer::check_k(*k);
  pipeline::check_nranks(*ranks);

  if (!trace->empty()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.enable();
    obs::Tracer::bind(
        tracer.buffer(static_cast<std::uint32_t>(*ranks), 0, "driver", "main"));
  }

  const seq::ReadStore reads = load_fasta(*in);
  log::info("loaded ", reads.size(), " reads");
  const auto run = run_overlap(reads, *ranks, static_cast<std::uint32_t>(*k), *coverage,
                               *error, "bsp", 100, static_cast<std::uint32_t>(*min_overlap),
                               *compute_threads);

  // Phases 4-6 over rt::World: shard the accepted records by the owner of
  // read_a (any sharding with the same union gives the same bytes), run the
  // distributed build / reduce / contig protocol, and take the broadcast
  // result from any surviving rank.
  pipeline::DistributedAssemblyOptions asm_options;
  asm_options.assembly.min_overlap = static_cast<std::uint32_t>(*min_overlap);
  asm_options.assembly.max_overhang = 700;
  asm_options.assembly.end_slack = 60;
  asm_options.assembly.fuzz = 180;
  asm_options.assembly.prune = true;
  std::vector<std::vector<align::AlignmentRecord>> shards(*ranks);
  for (const align::AlignmentRecord& record : run.records) {
    const auto it = std::upper_bound(run.bounds.begin(), run.bounds.end(), record.read_a);
    shards[static_cast<std::size_t>(it - run.bounds.begin()) - 1].push_back(record);
  }
  rt::World world(*ranks);
  if (!faults->empty()) {
    world.set_faults(rt::FaultPlan::parse(*faults));
    log::info("fault injection on for the graph phases");
  }
  std::vector<pipeline::DistributedAssembly> per_rank(*ranks);
  world.run([&](rt::Rank& rank) {
    per_rank[rank.id()] = pipeline::run_distributed_assembly(
        rank, reads, run.bounds, shards[rank.id()], asm_options);
  });
  // Survivors hold identical broadcast results; a crashed rank's slot is
  // default-constructed (empty GFA — the header alone is never empty).
  const auto survivor =
      std::find_if(per_rank.begin(), per_rank.end(),
                   [](const pipeline::DistributedAssembly& a) { return !a.result.gfa.empty(); });
  GNB_THROW_IF(survivor == per_rank.end(), "no rank survived the graph phases");
  const graph::AssemblyResult& assembly = survivor->result;
  if (survivor->restarts > 0)
    log::info("graph phases recovered from ", survivor->restarts, " membership change(s)");

  if (!gfa->empty()) {
    std::ofstream gfa_file(*gfa);
    GNB_THROW_IF(!gfa_file, "cannot open output: " << *gfa);
    gfa_file << assembly.gfa;
    log::info("wrote string graph to ", *gfa);
  }
  const graph::AssemblyStats& stats = assembly.stats;
  log::info("assembly: ", stats.contigs, " contigs, total ", stats.total_length,
            " bases, N50 ", stats.n50, ", longest ", stats.longest);

  if (!trace->empty()) {
    obs::Tracer::bind(nullptr);
    finish_trace(*trace, "trace");
  }
  if (!metrics->empty()) {
    obs::MetricsRegistry graph_metrics;
    graph_metrics.merge(world.metrics());
    std::ostringstream info;
    info << "{\"command\":\"assemble\",\"input\":";
    obs::json::write_string(info, *in);
    info << ",\"ranks\":" << *ranks << ",\"reads\":" << reads.size()
         << ",\"clock\":\"monotonic\"}";
    const obs::MetricsPhase phases[] = {{"pipeline", &run.pipeline_metrics},
                                        {"align", &run.align_metrics},
                                        {"graph", &graph_metrics}};
    std::ofstream file(*metrics);
    GNB_THROW_IF(!file, "cannot open output: " << *metrics);
    obs::write_metrics_json(file, info.str(), phases);
    log::info("wrote metrics to ", *metrics);
  }

  std::ofstream file(*out);
  GNB_THROW_IF(!file, "cannot open output: " << *out);
  seq::FastaWriter writer(file);
  std::size_t index = 0;
  for (const auto& contig : assembly.contigs) {
    writer.write(seq::FastaRecord{"contig" + std::to_string(index++),
                                  "reads=" + std::to_string(contig.path.size()),
                                  graph::contig_sequence(contig, reads)});
  }
  log::info("wrote ", assembly.contigs.size(), " contigs to ", *out);
  return 0;
}

int cmd_correct(int argc, char** argv) {
  Cli cli("gnbody correct", "Consensus error correction from overlaps");
  auto in = cli.opt<std::string>("in", "reads.fa", "input FASTA/FASTQ");
  auto out = cli.opt<std::string>("out", "corrected.fa", "output FASTA path");
  auto ranks = cli.opt<std::uint64_t>("ranks", 4, "SPMD ranks (threads)");
  auto k = cli.opt<std::uint64_t>("k", 15, "k-mer length (<= 32)");
  auto coverage = cli.opt<double>("coverage", 20, "assumed depth for the BELLA filter");
  auto error = cli.opt<double>("error", 0.12, "assumed error rate");
  auto compute_threads = cli.opt<std::uint64_t>(
      "compute-threads", proto::compute_threads_from_env(1),
      "threads per rank for the k-mer stage and alignment workers (1 = inline serial; "
      "env GNB_COMPUTE_THREADS)");
  cli.parse(argc, argv);
  kmer::check_k(*k);
  pipeline::check_nranks(*ranks);

  const seq::ReadStore reads = load_fasta(*in);
  log::info("loaded ", reads.size(), " reads");
  const auto records = run_overlap(reads, *ranks, static_cast<std::uint32_t>(*k), *coverage,
                                   *error, "bsp", 80, 150, *compute_threads)
                           .records;
  const correct::CorrectedSet corrected = correct::correct_reads(reads, records);
  log::info("corrected ", corrected.stats.reads_changed, "/",
            corrected.stats.reads_processed, " reads: ", corrected.stats.substitutions,
            " substitutions, ", corrected.stats.insertions, " insertions, ",
            corrected.stats.deletions, " deletions");

  std::ofstream file(*out);
  GNB_THROW_IF(!file, "cannot open output: " << *out);
  seq::FastaWriter writer(file);
  for (seq::ReadId id = 0; id < reads.size(); ++id)
    writer.write(seq::FastaRecord{reads.get(id).name, "corrected", corrected.reads[id]});
  log::info("wrote ", reads.size(), " corrected reads to ", *out);
  return 0;
}

wl::DatasetSpec spec_by_name(const std::string& name) {
  if (name == "tiny") return wl::tiny_spec();
  if (name == "ecoli30x") return wl::ecoli30x_spec();
  if (name == "ecoli100x") return wl::ecoli100x_spec();
  GNB_THROW_IF(name != "human-ccs",
               "unknown dataset '" << name << "' (tiny | ecoli30x | ecoli100x | human-ccs)");
  return wl::human_ccs_spec();
}

int cmd_sim(int argc, char** argv) {
  Cli cli("gnbody sim", "Cost-model simulation of one engine phase at cluster scale");
  auto dataset =
      cli.opt<std::string>("dataset", "tiny", "tiny | ecoli30x | ecoli100x | human-ccs");
  auto nodes = cli.opt<std::uint64_t>("nodes", 64, "simulated node count");
  auto machine_name = cli.opt<std::string>(
      "machine", "cori-knl",
      "machine model: cori-knl | host (host = one shared-memory node with --nodes ranks, "
      "matching the threaded runtime for perf-report fidelity comparisons)");
  auto engine = cli.opt<std::string>("engine", "bsp", "engine: bsp | async");
  auto scale = cli.opt<double>("scale", 20, "model workload at 1/scale of the paper's counts");
  auto compute_threads = cli.opt<std::uint64_t>(
      "compute-threads", proto::compute_threads_from_env(1),
      "modeled alignment workers per rank (env GNB_COMPUTE_THREADS)");
  auto batch_aligner = cli.opt<std::string>(
      "batch-aligner", proto::to_string(proto::batch_aligner_from_env()),
      "kernel backend to calibrate against: scalar | simd | auto (env GNB_BATCH_ALIGNER)");
  auto wire_compression = cli.opt<std::string>(
      "wire-compression", proto::to_string(proto::wire_compression_from_env()),
      "modeled read payload codec: off | pack2 | pack2-rle | auto (env GNB_WIRE_COMPRESSION)");
  auto ranks_per_node = cli.opt<std::uint64_t>(
      "ranks-per-node", 1,
      "co-located ranks per node for the two-level exchange plan (1 = flat; "
      "set to the machine's cores per node to model hierarchy-aware aggregation; "
      "> 1 needs --engine bsp and no --faults)");
  auto seed = cli.opt<std::uint64_t>("seed", 42, "workload + calibration seed");
  auto assembly = cli.flag(
      "assembly", "model the graph phases (build/reduce/contig) instead of alignment");
  auto trace = cli.opt<std::string>("trace", "",
                                    "write a Perfetto/Chrome trace-event JSON (virtual clock)");
  auto metrics = cli.opt<std::string>("metrics", "", "write a metrics-snapshot JSON");
  auto faults = cli.opt<std::string>("faults", "", "fault spec (same syntax as overlap)");
  cli.parse(argc, argv);

  sim::SimOptions options;
  if (!faults->empty()) options.faults = rt::FaultPlan::parse(*faults);
  proto::check_ranks_per_node(*ranks_per_node, *engine == "bsp" && !*assembly,
                              options.faults.enabled());

  const wl::DatasetSpec spec = spec_by_name(*dataset);
  const wl::SimWorkload workload = wl::model_workload(spec, *scale, *seed);
  const bool host_machine = *machine_name == "host";
  GNB_THROW_IF(!host_machine && *machine_name != "cori-knl",
               "unknown machine '" << *machine_name << "' (use cori-knl or host)");
  sim::MachineParams machine =
      host_machine ? sim::threaded_host(*nodes) : sim::cori_knl(*nodes);
  // The host model keeps its exact rank count — matched-config fidelity
  // runs compare rank-for-rank against a real trace; only the cluster
  // model gets the 1/scale slice.
  if (!host_machine) sim::scale_slice(machine, *scale);
  const proto::WireCompression wire_mode = parse_wire_compression_cli(*wire_compression);
  const sim::SimAssignment assignment = sim::assign(
      workload, machine.total_ranks(), sim::BalancePolicy::kCountBalanced, wire_mode);
  log::info(spec.name, ": ", workload.read_lengths.size(), " model reads, ",
            workload.tasks.size(), " tasks on ", machine.total_ranks(), " virtual ranks (",
            *nodes, " nodes)");

  const proto::BatchAlignerKind kernel_kind = parse_batch_aligner_cli(*batch_aligner);
  log::info(align::batch_aligner_report(kernel_kind));
  options.calibration = core::calibrate_cost_model(*seed, 0.2, kernel_kind);
  options.proto.compute_threads = *compute_threads;
  options.proto.batch_aligner = kernel_kind;
  options.proto.wire_compression = wire_mode;
  options.proto.ranks_per_node = *ranks_per_node;
  const bool async_mode = *engine == "async";
  GNB_THROW_IF(!async_mode && *engine != "bsp",
               "unknown engine '" << *engine << "' (use bsp or async)");
  if (!trace->empty()) {
    obs::Tracer::instance().enable();
    options.trace = true;
  }

  const sim::SimResult result =
      *assembly ? sim::simulate_assembly(machine, assignment, options)
      : async_mode ? sim::simulate_async(machine, assignment, options)
                   : sim::simulate_bsp(machine, assignment, options);
  const stat::Summary summary = sim::reduce(result);
  const std::string phase_name = *assembly ? "graph" : *engine;
  Table table(stat::breakdown_headers({"nodes", "phase"}));
  stat::add_breakdown_row(table, {std::to_string(*nodes), phase_name}, summary);
  table.print("simulated phase breakdown (virtual clock)");
  if (*assembly)
    log::info("graph phases: ", result.rounds, " reduction rounds, ", result.messages,
              " messages, ", result.exchange_bytes, " exchange bytes");
  if (summary.faults.any()) {
    Table fault_table(stat::fault_headers({"engine"}));
    stat::add_fault_row(fault_table, {*engine}, summary);
    fault_table.print("simulated fault counters");
  }
  if (*compute_threads > 1) {
    Table compute_table(stat::compute_headers({"engine"}));
    stat::add_compute_row(compute_table, {*engine}, summary);
    compute_table.print("modeled compute layer");
  }

  if (!trace->empty()) {
    finish_trace(*trace, "virtual-clock trace");
  }
  if (!metrics->empty()) {
    obs::MetricsRegistry registry;
    stat::export_metrics(summary, registry);
    registry.add(obs::metric::kAlignTasks, workload.tasks.size());
    std::ostringstream info;
    info << "{\"command\":\"sim\",\"dataset\":";
    obs::json::write_string(info, spec.name);
    info << ",\"engine\":";
    obs::json::write_string(info, *engine);
    info << ",\"nodes\":" << *nodes << ",\"ranks\":" << machine.total_ranks()
         << ",\"scale\":" << obs::json::number(*scale) << ",\"seed\":" << *seed
         << ",\"clock\":\"virtual\"}";
    const obs::MetricsPhase phases[] = {{"align", &registry}};
    std::ofstream file(*metrics);
    GNB_THROW_IF(!file, "cannot open output: " << *metrics);
    obs::write_metrics_json(file, info.str(), phases);
    log::info("wrote metrics to ", *metrics);
  }
  return 0;
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GNB_THROW_IF(!in, "cannot open input: " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  GNB_THROW_IF(!in && !in.eof(), "read failed: " << path);
  return buffer.str();
}

void perf_usage() {
  std::fputs(
      "usage: gnbody perf report <trace.json> [--metrics <metrics.json>]\n"
      "                          [--sim <sim_trace.json>] [--out <PERF_report.json>]\n"
      "       gnbody perf diff <baseline.json> <candidate.json>\n"
      "                          [--gate-pct <N>] [--warn-pct <N>]\n"
      "\n"
      "report: analyze a Chrome-trace JSON (from overlap/assemble/sim --trace):\n"
      "        phase attribution, per-rank imbalance, cross-rank critical path;\n"
      "        with --sim, a span-by-span sim-fidelity table. Writes the\n"
      "        deterministic PERF_report.json next to the human tables.\n"
      "diff:   compare two PERF_report.json or BENCH_*.json documents. Counted\n"
      "        metrics (span counts, rounds, messages, exchange bytes, drops)\n"
      "        gate hard — growth beyond --gate-pct (default 0) exits 4;\n"
      "        wall-clock values only warn (past --warn-pct, default 10).\n",
      stderr);
}

int cmd_perf(int argc, char** argv) {
  // util::Cli has no positional-argument support, so this subcommand
  // hand-parses: perf <report|diff> <files...> [--flag value].
  std::vector<std::string> positional;
  std::string metrics_path, sim_path, out_path = "PERF_report.json";
  double gate_pct = 0.0, warn_pct = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      GNB_THROW_IF(i + 1 >= argc, "perf: " << flag << " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      perf_usage();
      return 0;
    } else if (arg == "--metrics") {
      metrics_path = next("--metrics");
    } else if (arg == "--sim") {
      sim_path = next("--sim");
    } else if (arg == "--out") {
      out_path = next("--out");
    } else if (arg == "--gate-pct") {
      gate_pct = std::stod(next("--gate-pct"));
    } else if (arg == "--warn-pct") {
      warn_pct = std::stod(next("--warn-pct"));
    } else if (arg.starts_with("--")) {
      GNB_THROW_IF(true, "perf: unknown option " << arg);
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) {
    perf_usage();
    return 2;
  }
  const std::string mode = positional.front();

  if (mode == "report") {
    GNB_THROW_IF(positional.size() != 2, "perf report: expected exactly one <trace.json>");
    const obs::analysis::Trace trace =
        obs::analysis::load_trace(read_text_file(positional[1]));
    obs::analysis::Report report = obs::analysis::analyze(trace);
    if (!metrics_path.empty())
      obs::analysis::merge_metrics_json(report, read_text_file(metrics_path));

    obs::analysis::Fidelity fidelity;
    bool have_fidelity = false;
    if (!sim_path.empty()) {
      const obs::analysis::Trace sim_trace =
          obs::analysis::load_trace(read_text_file(sim_path));
      const obs::analysis::Report sim_report = obs::analysis::analyze(sim_trace);
      fidelity = obs::analysis::compare_fidelity(report, sim_report);
      have_fidelity = true;
    }
    std::ostringstream human;
    obs::analysis::print_report(human, report, have_fidelity ? &fidelity : nullptr);
    std::fputs(human.str().c_str(), stdout);
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    GNB_THROW_IF(!out, "cannot open output: " << out_path);
    obs::analysis::write_report_json(out, report, have_fidelity ? &fidelity : nullptr);
    log::info("wrote perf report to ", out_path);
    return 0;
  }

  if (mode == "diff") {
    GNB_THROW_IF(positional.size() != 3, "perf diff: expected <baseline> <candidate>");
    const auto baseline = obs::perfdiff::flatten(read_text_file(positional[1]));
    const auto candidate = obs::perfdiff::flatten(read_text_file(positional[2]));
    obs::perfdiff::DiffOptions options;
    options.gate_pct = gate_pct;
    options.warn_pct = warn_pct;
    const obs::perfdiff::DiffResult result = obs::perfdiff::diff(baseline, candidate, options);
    std::ostringstream human;
    const bool pass = obs::perfdiff::print_diff(human, result);
    std::fputs(human.str().c_str(), stdout);
    // Exit 4 on gate failure: distinct from 1 (error), 2 (usage) and
    // 3 (unrecoverable run), so CI can tell a perf regression from a crash.
    return pass ? 0 : 4;
  }

  perf_usage();
  return 2;
}

void usage() {
  std::fputs(
      "gnbody — many-to-many long-read alignment toolkit\n"
      "usage: gnbody <simulate|overlap|assemble|correct|sim|perf> [options]\n"
      "       gnbody <command> --help for command options\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "simulate") return cmd_simulate(argc - 1, argv + 1);
    if (command == "overlap") return cmd_overlap(argc - 1, argv + 1);
    if (command == "assemble") return cmd_assemble(argc - 1, argv + 1);
    if (command == "correct") return cmd_correct(argc - 1, argv + 1);
    if (command == "sim") return cmd_sim(argc - 1, argv + 1);
    if (command == "perf") return cmd_perf(argc - 1, argv + 1);
  } catch (const gnb::UnrecoverableError& e) {
    // Bounded recovery gave up (max_recovery_attempts): a distinct exit
    // code so chaos harnesses can tell "declared unrecoverable" from an
    // ordinary error.
    std::fprintf(stderr, "gnbody %s: unrecoverable: %s\n", command.c_str(), e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gnbody %s: %s\n", command.c_str(), e.what());
    return 1;
  }
  usage();
  return 2;
}
