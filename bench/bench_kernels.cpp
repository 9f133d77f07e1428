// Kernel microbenchmarks (google-benchmark): the X-drop seed-and-extend
// kernel on true overlaps and false-positive candidates, the exact
// Smith-Waterman baseline, k-mer extraction/counting, and sequence
// pack/serialize — the per-task building blocks whose costs drive the
// application-level models — plus the stage-2 record join and the read
// codec rows of BENCH_kernels.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <span>
#include <tuple>

#include "align/batch.hpp"
#include "align/cigar.hpp"
#include "align/exact.hpp"
#include "align/xdrop.hpp"
#include "align/xdrop_batch.hpp"
#include "core/bsp.hpp"
#include "kmer/bella_filter.hpp"
#include "kmer/counter.hpp"
#include "kmer/records.hpp"
#include "obs/trace.hpp"
#include "pipeline/pipeline.hpp"
#include "rt/world.hpp"
#include "seq/read_store.hpp"
#include "seq/wire_codec.hpp"
#include "util/rng.hpp"
#include "wl/genome.hpp"
#include "wl/presets.hpp"
#include "wl/sampler.hpp"

using namespace gnb;

namespace {

struct BenchData {
  std::vector<std::uint8_t> a_true, b_true;  // overlapping pair
  align::Seed seed_true;
  std::vector<std::uint8_t> a_false, b_false;  // unrelated pair
  align::Seed seed_false;
  seq::ReadStore reads;
};

const BenchData& data() {
  static const BenchData instance = [] {
    BenchData d;
    Xoshiro256 rng(123);
    wl::GenomeParams gp;
    gp.length = 60'000;
    gp.repeat_fraction = 0;
    const seq::Sequence genome = wl::generate_genome(gp, rng);
    wl::ReadSimParams rp;
    rp.coverage = 4;
    rp.mean_length = 3000;
    rp.error_rate = 0.12;
    rp.shuffle = false;
    wl::SampledDataset ds = wl::sample_reads(genome, rp, rng);

    // Find a strongly overlapping same-strand pair for the true case.
    for (std::size_t i = 0; i + 1 < ds.reads.size() && d.a_true.empty(); ++i) {
      for (std::size_t j = i + 1; j < ds.reads.size(); ++j) {
        if (ds.origins[i].reverse_strand != ds.origins[j].reverse_strand) continue;
        if (wl::true_overlap(ds.origins[i], ds.origins[j]) < 1500) continue;
        d.a_true = ds.reads.get(static_cast<seq::ReadId>(i)).sequence.unpack();
        d.b_true = ds.reads.get(static_cast<seq::ReadId>(j)).sequence.unpack();
        // Brute-force a short exact anchor.
        constexpr std::uint32_t k = 13;
        for (std::uint32_t pa = 0; pa + k < d.a_true.size() && d.seed_true.length == 0;
             pa += 19) {
          for (std::uint32_t pb = 0; pb + k < d.b_true.size(); pb += 1) {
            if (std::equal(d.a_true.begin() + pa, d.a_true.begin() + pa + k,
                           d.b_true.begin() + pb)) {
              d.seed_true = align::Seed{pa, pb, k, false};
              break;
            }
          }
        }
        if (d.seed_true.length == 0) d.a_true.clear();
        break;
      }
    }

    // Unrelated pair: reads from far-apart genome regions.
    d.a_false.assign(3000, 0);
    d.b_false.assign(3000, 0);
    for (auto& c : d.a_false) c = static_cast<std::uint8_t>(rng.below(4));
    for (auto& c : d.b_false) c = static_cast<std::uint8_t>(rng.below(4));
    // Plant a fake 17-mer match in the middle (a false-positive seed).
    for (std::uint32_t t = 0; t < 17; ++t) d.b_false[1500 + t] = d.a_false[1500 + t];
    d.seed_false = align::Seed{1500, 1500, 17, false};

    for (std::size_t i = 0; i < std::min<std::size_t>(ds.reads.size(), 40); ++i) {
      const auto& read = ds.reads.get(static_cast<seq::ReadId>(i));
      d.reads.add(read.name, read.sequence);
    }
    return d;
  }();
  return instance;
}

void BM_XdropTrueOverlap(benchmark::State& state) {
  const BenchData& d = data();
  if (d.a_true.empty()) {
    state.SkipWithError("no overlapping pair found");
    return;
  }
  std::uint64_t cells = 0;
  for (auto _ : state) {
    const auto alignment = align::xdrop_align(d.a_true, d.b_true, d.seed_true, {});
    benchmark::DoNotOptimize(alignment.score);
    cells += alignment.cells;
  }
  state.counters["cells/s"] =
      benchmark::Counter(static_cast<double>(cells), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_XdropTrueOverlap);

void BM_XdropFalsePositive(benchmark::State& state) {
  const BenchData& d = data();
  std::uint64_t cells = 0;
  for (auto _ : state) {
    const auto alignment = align::xdrop_align(d.a_false, d.b_false, d.seed_false, {});
    benchmark::DoNotOptimize(alignment.score);
    cells += alignment.cells;
  }
  // Early termination: cells per call should be orders of magnitude below
  // the full DP size (9M cells for 3k x 3k).
  state.counters["cells/call"] = static_cast<double>(cells) /
                                 static_cast<double>(state.iterations());
}
BENCHMARK(BM_XdropFalsePositive);

void BM_SmithWatermanExact(benchmark::State& state) {
  const BenchData& d = data();
  // Exact O(nm) on 1/4-length slices to keep the bench quick.
  const std::span<const std::uint8_t> a(d.a_false.data(), 750);
  const std::span<const std::uint8_t> b(d.b_false.data(), 750);
  for (auto _ : state) {
    const auto result = align::smith_waterman(a, b);
    benchmark::DoNotOptimize(result.score);
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 750 * 750, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SmithWatermanExact);

void BM_KmerCounting(benchmark::State& state) {
  const BenchData& d = data();
  for (auto _ : state) {
    kmer::KmerCounter counter;
    counter.count_reads(d.reads.reads(), 17);
    benchmark::DoNotOptimize(counter.distinct());
  }
  state.counters["bases/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(d.reads.total_bases()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KmerCounting);

void BM_BandedTraceback(benchmark::State& state) {
  const BenchData& d = data();
  if (d.a_true.empty()) {
    state.SkipWithError("no overlapping pair found");
    return;
  }
  // Re-align the overlap region with traceback (the error-correction
  // kernel): both sequences truncated to equal-ish windows.
  const std::size_t window = std::min<std::size_t>(
      1'500, std::min(d.a_true.size(), d.b_true.size()));
  const std::span<const std::uint8_t> a(d.a_true.data(), window);
  const std::span<const std::uint8_t> b(d.b_true.data(), window);
  for (auto _ : state) {
    const auto result = align::banded_global_traceback(a, b, 200);
    benchmark::DoNotOptimize(result.score);
  }
  state.counters["bases/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(window),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BandedTraceback);

void BM_ReadSerializeRoundtrip(benchmark::State& state) {
  const BenchData& d = data();
  const seq::Read& read = d.reads.get(0);
  for (auto _ : state) {
    std::vector<std::uint8_t> buffer;
    seq::serialize_read(read, buffer);
    std::size_t offset = 0;
    const seq::Read back = seq::deserialize_read(buffer, offset);
    benchmark::DoNotOptimize(back.id);
  }
}
BENCHMARK(BM_ReadSerializeRoundtrip);

// --- batch aligner: scalar vs row-vectorized SIMD --------------------------
//
// Times the same task list through both align::BatchAligner backends. The
// SIMD backend evaluates each extension's DP rows 32 int8 cells per vector
// (8 int32 cells in its portable form). Lane occupancy is the share of
// issued vector slots that held a cell of the live band; the rest are the
// unused tail of each row's last chunk.

struct BatchKernelWorkload {
  // Owned storage; `tasks` holds spans into it, so it is built only after the
  // storage vector stops growing (the inner vectors' heap buffers are stable,
  // but spans are taken in a second pass for clarity).
  std::vector<std::vector<std::uint8_t>> storage;
  std::vector<align::Seed> seeds;
  std::vector<align::AlignTask> tasks;
};

BatchKernelWorkload make_batch_kernel_workload() {
  BatchKernelWorkload w;
  Xoshiro256 rng(321);
  wl::GenomeParams gp;
  gp.length = 80'000;
  gp.repeat_fraction = 0;
  const seq::Sequence genome = wl::generate_genome(gp, rng);
  wl::ReadSimParams rp;
  rp.coverage = 6;
  rp.mean_length = 1'500;
  rp.error_rate = 0.12;
  rp.shuffle = false;
  const wl::SampledDataset ds = wl::sample_reads(genome, rp, rng);

  for (std::size_t i = 0; i + 1 < ds.reads.size() && w.seeds.size() < 64; ++i) {
    for (std::size_t j = i + 1; j < ds.reads.size(); ++j) {
      if (ds.origins[i].reverse_strand != ds.origins[j].reverse_strand) continue;
      if (wl::true_overlap(ds.origins[i], ds.origins[j]) < 600) continue;
      auto a = ds.reads.get(static_cast<seq::ReadId>(i)).sequence.unpack();
      auto b = ds.reads.get(static_cast<seq::ReadId>(j)).sequence.unpack();
      align::Seed seed{};
      constexpr std::uint32_t k = 13;
      for (std::uint32_t pa = 0; pa + k < a.size() && seed.length == 0; pa += 17) {
        for (std::uint32_t pb = 0; pb + k < b.size(); pb += 1) {
          if (std::equal(a.begin() + pa, a.begin() + pa + k, b.begin() + pb)) {
            seed = align::Seed{pa, pb, static_cast<std::uint16_t>(k), false};
            break;
          }
        }
      }
      if (seed.length == 0) break;
      w.storage.push_back(std::move(a));
      w.storage.push_back(std::move(b));
      w.seeds.push_back(seed);
      break;  // at most one pair per i
    }
  }
  for (std::size_t p = 0; p < w.seeds.size(); ++p)
    w.tasks.push_back(
        align::AlignTask{w.storage[2 * p], w.storage[2 * p + 1], w.seeds[p]});
  return w;
}

const BatchKernelWorkload& batch_kernel_workload() {
  static const BatchKernelWorkload instance = make_batch_kernel_workload();
  return instance;
}

void run_batch_kernel_bench(benchmark::State& state, proto::BatchAlignerKind kind) {
  const BatchKernelWorkload& w = batch_kernel_workload();
  if (w.tasks.empty()) {
    state.SkipWithError("no overlapping pairs found");
    return;
  }
  const auto backend = align::make_batch_aligner(kind, {});
  for (auto _ : state) {
    const auto results = backend->align(w.tasks);
    benchmark::DoNotOptimize(results.data());
  }
  const align::BatchStats stats = backend->stats();
  state.counters["cells/s"] =
      benchmark::Counter(static_cast<double>(stats.cells), benchmark::Counter::kIsRate);
  state.counters["lane_occupancy"] = stats.occupancy();
  state.SetLabel(backend->info().name);
}

void BM_BatchXdropScalar(benchmark::State& state) {
  run_batch_kernel_bench(state, proto::BatchAlignerKind::kScalar);
}
BENCHMARK(BM_BatchXdropScalar);

void BM_BatchXdropSimd(benchmark::State& state) {
  run_batch_kernel_bench(state, proto::BatchAlignerKind::kSimd);
}
BENCHMARK(BM_BatchXdropSimd);

struct BatchKernelCase {
  align::BatchAlignerInfo info;
  std::uint64_t tasks = 0;  // per pass
  std::uint64_t cells = 0;  // per pass
  double seconds = 0;       // thread CPU seconds of the median pass
  double mcells_per_s = 0;
  double occupancy = 0;
};

/// CPU seconds the calling thread has run.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Passes timed per batch-kernel row, after one untimed pass.
constexpr std::size_t kKernelPasses = 5;

/// Time `tasks` through `backend`, handed over `chunk` tasks per align()
/// call: one untimed pass grows the scratch and fills the caches, then
/// kKernelPasses passes are timed in thread CPU time, which a preempted
/// thread does not accrue. The row reports the median pass.
BatchKernelCase run_batch_kernel_case(align::BatchAligner& backend,
                                      std::span<const align::AlignTask> tasks,
                                      std::size_t chunk) {
  const auto pass = [&] {
    for (std::size_t begin = 0; begin < tasks.size(); begin += chunk) {
      const auto results =
          backend.align(tasks.subspan(begin, std::min(chunk, tasks.size() - begin)));
      benchmark::DoNotOptimize(results.data());
    }
  };
  pass();
  const align::BatchStats before = backend.stats();
  std::vector<double> seconds;
  for (std::size_t p = 0; p < kKernelPasses; ++p) {
    const double start = thread_cpu_seconds();
    pass();
    seconds.push_back(thread_cpu_seconds() - start);
  }
  std::sort(seconds.begin(), seconds.end());
  const align::BatchStats stats = backend.stats() - before;
  BatchKernelCase result;
  result.info = backend.info();
  result.tasks = stats.tasks / kKernelPasses;
  result.cells = stats.cells / kKernelPasses;
  result.seconds = seconds[kKernelPasses / 2];
  result.mcells_per_s =
      result.seconds > 0 ? static_cast<double>(result.cells) / result.seconds / 1e6 : 0;
  result.occupancy = stats.occupancy();
  return result;
}

BatchKernelCase run_batch_kernel_case(std::span<const align::AlignTask> tasks,
                                      proto::BatchAlignerKind kind, std::size_t chunk) {
  return run_batch_kernel_case(*align::make_batch_aligner(kind, {}), tasks, chunk);
}

/// One row per row-kernel instantiation this host runs, widest first.
std::vector<BatchKernelCase> run_row_kernel_cases(std::span<const align::AlignTask> tasks,
                                                  std::size_t chunk) {
  std::vector<BatchKernelCase> rows;
  for (const align::detail::RowKernel& kernel : align::detail::row_kernels()) {
    if (!kernel.runnable()) continue;
    const auto backend = align::detail::make_row_kernel_aligner(kernel, {});
    rows.push_back(run_batch_kernel_case(*backend, tasks, chunk));
  }
  return rows;
}

void append_batch_kernel_row(std::string& json, const char* label,
                             const BatchKernelCase& c, bool trailing_comma) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "    {\"labels\":{\"case\":\"%s\"},\"backend\":\"%s\",\"lanes\":%zu,"
                "\"tasks\":%llu,\"cells\":%llu,\"passes\":%zu,\"seconds\":%.6f,"
                "\"mcells_per_s\":%.1f,\"lane_occupancy\":%.4f}%s\n",
                label, c.info.name, c.info.lanes,
                static_cast<unsigned long long>(c.tasks),
                static_cast<unsigned long long>(c.cells), kKernelPasses, c.seconds,
                c.mcells_per_s, c.occupancy, trailing_comma ? "," : "");
  json += buffer;
}

// --- batch aligner on realistic candidate sets -----------------------------
//
// The 64-pair batch above holds uniform 1.5 kb true overlaps, a best case
// for any kernel. These rows time both backends over the candidate tasks
// pipeline::run_serial finds on reads shaped like the end-to-end benchmark's
// inputs (bench/e2e: `ont` 1.5 kb at 12 % error and 20x, `hifi` 12 kb at 3 %
// and 15x, 5 % repeats), scaled down to a 40 kb genome and every 6th task so
// a scalar pass stays near a second. Tasks reach the kernel 32 at a time,
// as core::TaskRunner batches them.

struct TaskSetWorkload {
  std::vector<std::vector<std::uint8_t>> storage;  // 2 per task
  std::vector<align::AlignTask> tasks;
};

/// Reads shaped like a bench/e2e input, on a 40 kb genome with 5 % repeats.
wl::SampledDataset sample_dataset(double coverage, double error, double mean_length) {
  Xoshiro256 rng(11);
  wl::GenomeParams gp;
  gp.length = 40'000;
  gp.repeat_fraction = 0.05;
  const seq::Sequence genome = wl::generate_genome(gp, rng);
  wl::ReadSimParams rp;
  rp.coverage = coverage;
  rp.error_rate = error;
  rp.mean_length = mean_length;
  return wl::sample_reads(genome, rp, rng);
}

pipeline::PipelineConfig pipeline_config(double coverage, double error) {
  constexpr std::uint32_t k = 17;
  const kmer::ReliableBounds band =
      kmer::reliable_bounds(kmer::BellaParams{coverage, error, k, 1e-3});
  pipeline::PipelineConfig config;
  config.k = k;
  config.lo = band.lo;
  config.hi = band.hi;
  return config;
}

TaskSetWorkload make_task_set_workload(double coverage, double error, double mean_length) {
  const wl::SampledDataset ds = sample_dataset(coverage, error, mean_length);
  const std::vector<kmer::AlignTask> all =
      pipeline::run_serial(ds.reads, pipeline_config(coverage, error), /*ranks=*/1)
          .sorted_union();

  TaskSetWorkload w;
  std::vector<align::Seed> seeds;
  for (std::size_t i = 0; i < all.size(); i += 6) {
    w.storage.push_back(seq::oriented_codes(ds.reads.get(all[i].a).sequence, false));
    w.storage.push_back(
        seq::oriented_codes(ds.reads.get(all[i].b).sequence, all[i].seed.b_reversed));
    seeds.push_back(all[i].seed);
  }
  for (std::size_t t = 0; t < seeds.size(); ++t)
    w.tasks.push_back(align::AlignTask{w.storage[2 * t], w.storage[2 * t + 1], seeds[t]});
  return w;
}

// --- stage-2 join and read codec on hifi-shaped reads ---------------------
//
// The two loops outside the alignment kernel that the critical path runs
// per read or per candidate pair: the record join of stage 2, at 1 and 2
// threads on one shard holding every record, and the read codec under
// `auto` (size, encode, decode), in megabases per second. Each row is one
// pass, timed as the mean over passes until at least 0.3 s have passed.

struct LoopCase {
  std::size_t threads = 1;
  std::uint64_t items = 0;  // records joined, or bases coded
  std::uint64_t tasks = 0;  // join only
  std::size_t passes = 0;
  double seconds = 0;       // per pass

  [[nodiscard]] double mitems_per_s() const {
    return seconds > 0 ? static_cast<double>(items) / seconds / 1e6 : 0;
  }
};

template <class Pass>
LoopCase time_passes(std::uint64_t items, Pass pass) {
  LoopCase result;
  result.items = items;
  const auto start = std::chrono::steady_clock::now();
  double elapsed = 0;
  while (elapsed < 0.3) {
    pass();
    ++result.passes;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }
  result.seconds = elapsed / static_cast<double>(result.passes);
  return result;
}

struct Stage2Rows {
  LoopCase join[2];  // 1 and 2 threads
  LoopCase size, encode, decode;
};

Stage2Rows run_stage2_rows() {
  const wl::SampledDataset ds = sample_dataset(15, 0.03, 12'000);
  const pipeline::PipelineConfig config = pipeline_config(15, 0.03);
  const std::span<const seq::Read> reads(ds.reads.reads());
  std::vector<std::size_t> lengths;
  std::uint64_t bases = 0;
  for (const seq::Read& read : reads) {
    lengths.push_back(read.length());
    bases += read.length();
  }
  const kmer::RecordRouting routing(1, bases);
  const std::vector<std::vector<std::uint8_t>> shard =
      kmer::pack_records(reads, config.k, kmer::Sketch(config.keep_frac), routing);
  const std::uint64_t records =
      (shard[0].size() - routing.parts() * sizeof(std::uint64_t)) / sizeof(kmer::WindowRecord);

  Stage2Rows rows;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    std::uint64_t tasks = 0;
    rows.join[threads - 1] = time_passes(records, [&] {
      kmer::TaskTable table;
      kmer::join_records(shard, routing, config.k, config.lo, config.hi, lengths, table,
                         threads);
      tasks = table.take_sorted().size();
    });
    rows.join[threads - 1].threads = threads;
    rows.join[threads - 1].tasks = tasks;
  }

  constexpr auto kAuto = proto::WireCompression::kAuto;
  std::vector<std::uint8_t> frames;
  rows.size = time_passes(bases, [&] {
    std::uint64_t bytes = 0;
    for (const seq::Read& read : reads) bytes += seq::encoded_read_bytes(read, kAuto);
    benchmark::DoNotOptimize(bytes);
  });
  rows.encode = time_passes(bases, [&] {
    frames.clear();
    for (const seq::Read& read : reads) seq::encode_read(read, kAuto, frames);
    benchmark::DoNotOptimize(frames.data());
  });
  rows.decode = time_passes(bases, [&] {
    std::size_t offset = 0;
    while (offset < frames.size()) {
      const seq::Read read = seq::decode_read(frames, offset);
      benchmark::DoNotOptimize(read.sequence.words().data());
    }
  });
  return rows;
}

void append_join_row(std::string& json, const char* label, const LoopCase& c) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "    {\"labels\":{\"case\":\"%s\"},\"threads\":%zu,\"records\":%llu,"
                "\"tasks\":%llu,\"passes\":%zu,\"seconds\":%.6f,"
                "\"mrecords_per_s\":%.1f},\n",
                label, c.threads, static_cast<unsigned long long>(c.items),
                static_cast<unsigned long long>(c.tasks), c.passes, c.seconds,
                c.mitems_per_s());
  json += buffer;
}

void append_codec_row(std::string& json, const char* label, const LoopCase& c) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "    {\"labels\":{\"case\":\"%s\"},\"mode\":\"auto\",\"bases\":%llu,"
                "\"passes\":%zu,\"seconds\":%.6f,\"mbases_per_s\":%.1f},\n",
                label, static_cast<unsigned long long>(c.items), c.passes, c.seconds,
                c.mitems_per_s());
  json += buffer;
}

// --- read cache + alignment pool: whole-task throughput --------------------
//
// The microbenchmarks above time isolated kernels; this case times the full
// per-task path through core::TaskRunner (decode -> cache -> pool -> merge)
// on an E. coli preset with many tasks per read, and records the cache's
// effect on tasks/s. The X-drop threshold is tightened so the extension
// terminates quickly and the row isolates the decode/dispatch costs the
// cache and pool exist to amortize — the kernel itself is already costed by
// BM_XdropTrueOverlap.

struct CachePoolCase {
  std::size_t threads = 1;
  std::uint64_t cache_bytes = 0;
  std::uint64_t tasks = 0;
  double seconds = 0;
  double tasks_per_s = 0;
  double hit_rate = 0;
};

struct CachePoolWorkload {
  wl::SampledDataset dataset;
  pipeline::TaskSet tasks;
};

CachePoolWorkload make_cache_pool_workload() {
  wl::DatasetSpec spec = wl::ecoli30x_spec();
  spec.genome.length = 20'000;  // quick single-rank slice of the preset
  // Long reads put the decode cost (proportional to read length) in charge;
  // each read still participates in many candidate pairs at 30x.
  spec.reads.mean_length = 6'000;
  spec.reads.min_length = 1'500;
  CachePoolWorkload w;
  w.dataset = wl::synthesize(spec, 7);
  pipeline::PipelineConfig config;
  config.k = spec.k;
  config.lo = 2;
  config.hi = 8;
  w.tasks = pipeline::run_serial(w.dataset.reads, config, /*ranks=*/1);
  return w;
}

CachePoolCase run_cache_pool_case(const CachePoolWorkload& w, std::size_t threads,
                                  std::uint64_t cache_bytes) {
  core::EngineConfig config;
  // Terminate extensions almost immediately (negative expected slope at the
  // dataset's error rate + a tiny drop threshold): the DP never chases the
  // overlap, so the per-task cost is decode + dispatch, the thing this row
  // isolates.
  config.xdrop.x = 5;
  config.xdrop.scoring.mismatch = -9;
  config.xdrop.scoring.gap = -9;  // no cheap-gap detour around the penalty
  config.proto.compute_threads = threads;
  config.proto.read_cache_bytes = cache_bytes;
  CachePoolCase result;
  result.threads = threads;
  result.cache_bytes = cache_bytes;
  // Best of three runs: the case is short, so take the least-perturbed one.
  for (int rep = 0; rep < 3; ++rep) {
    rt::World world(1);
    core::EngineResult engine_result;
    const auto start = std::chrono::steady_clock::now();
    world.run([&](rt::Rank& rank) {
      engine_result = core::bsp_align(rank, w.dataset.reads, w.tasks.bounds,
                                      w.tasks.per_rank[0], config);
    });
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (rep == 0 || elapsed.count() < result.seconds) {
      result.tasks = engine_result.tasks_done;
      result.seconds = elapsed.count();
      result.hit_rate = engine_result.compute.hit_rate();
    }
  }
  result.tasks_per_s =
      result.seconds > 0 ? static_cast<double>(result.tasks) / result.seconds : 0;
  return result;
}

void append_cache_pool_row(std::string& json, const char* label,
                           const CachePoolCase& c, bool trailing_comma) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "    {\"labels\":{\"case\":\"%s\"},\"threads\":%zu,"
                "\"cache_bytes\":%llu,\"tasks\":%llu,\"seconds\":%.6f,"
                "\"tasks_per_s\":%.1f,\"cache_hit_rate\":%.4f}%s\n",
                label, c.threads, static_cast<unsigned long long>(c.cache_bytes),
                static_cast<unsigned long long>(c.tasks), c.seconds, c.tasks_per_s,
                c.hit_rate, trailing_comma ? "," : "");
  json += buffer;
}

// --- trace overhead: the alignment hot loop with recording on vs off ------
//
// Same serial BSP hot loop as the cache/pool rows, with the span tracer
// recording (as `gnbody overlap --trace` would) versus idle. When the tree
// is built with GNB_TRACE=OFF the macros compile to nothing and both rows
// measure the same code — the row then documents that the *compiled-out*
// overhead is zero, while a GNB_TRACE=ON build measures the live recording
// cost on the span/counter emission path.
//
// One off/on comparison is noisier than the tracing cost on a shared host,
// so the sides (each the best of three runs) come in interleaved pairs, the
// side that runs first alternating, and the report is the median of the
// per-pair overheads with their quartiles. A quartile range that includes
// zero cannot tell tracing from noise and is reported as unresolved.

struct TraceOverhead {
  CachePoolCase off;  // the off run with the median throughput
  CachePoolCase on;   // likewise with tracing on
  std::size_t pairs = 0;
  double median_pct = 0;
  double q1_pct = 0;
  double q3_pct = 0;

  [[nodiscard]] bool resolved() const { return q1_pct > 0 || q3_pct < 0; }
};

/// Linear-interpolated quantile `q` of sorted `values`.
double quantile(const std::vector<double>& values, double q) {
  const double at = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(at);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (at - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

TraceOverhead run_trace_overhead(const CachePoolWorkload& w, std::size_t pairs) {
  obs::Tracer& tracer = obs::Tracer::instance();
  const auto run = [&](bool trace_on) {
    if (trace_on) tracer.enable();
    CachePoolCase result = run_cache_pool_case(w, /*threads=*/1, /*cache_bytes=*/0);
    if (trace_on) tracer.disable();
    return result;
  };
  std::vector<CachePoolCase> off, on;
  std::vector<double> overhead_pct;
  for (std::size_t pair = 0; pair < pairs; ++pair) {
    const bool on_first = pair % 2 == 1;
    if (on_first) on.push_back(run(true));
    off.push_back(run(false));
    if (!on_first) on.push_back(run(true));
    const double on_rate = on.back().tasks_per_s;
    const double off_rate = off.back().tasks_per_s;
    overhead_pct.push_back(on_rate > 0 ? (off_rate / on_rate - 1.0) * 100.0 : 0.0);
  }
  std::sort(overhead_pct.begin(), overhead_pct.end());
  const auto by_throughput = [](const CachePoolCase& x, const CachePoolCase& y) {
    return x.tasks_per_s < y.tasks_per_s;
  };
  std::sort(off.begin(), off.end(), by_throughput);
  std::sort(on.begin(), on.end(), by_throughput);
  TraceOverhead result;
  result.off = off[pairs / 2];
  result.on = on[pairs / 2];
  result.pairs = pairs;
  result.median_pct = quantile(overhead_pct, 0.5);
  result.q1_pct = quantile(overhead_pct, 0.25);
  result.q3_pct = quantile(overhead_pct, 0.75);
  return result;
}

/// Run the cache/pool case pair plus the scalar-vs-SIMD batch kernel pair and
/// write the `BENCH_kernels.json` rows the perf trajectory tracks: serial
/// with a starved cache (every lookup re-decodes, the pre-cache behavior) vs
/// the pooled cached configuration, and the batch x-drop kernel through both
/// BatchAligner backends with cells/s and lane occupancy.
void write_cache_pool_report() {
  const CachePoolWorkload w = make_cache_pool_workload();
  // cache_bytes=1 starves the cache: every entry is evicted as soon as the
  // next lookup arrives, so each task re-decodes both reads (old behavior).
  const CachePoolCase serial = run_cache_pool_case(w, /*threads=*/1, /*cache_bytes=*/1);
  const CachePoolCase pooled = run_cache_pool_case(w, /*threads=*/4, /*cache_bytes=*/0);
  const double speedup =
      serial.tasks_per_s > 0 ? pooled.tasks_per_s / serial.tasks_per_s : 0;

  const TraceOverhead trace = run_trace_overhead(w, /*pairs=*/9);

  const BatchKernelWorkload& bw = batch_kernel_workload();
  const BatchKernelCase kernel_scalar =
      run_batch_kernel_case(bw.tasks, proto::BatchAlignerKind::kScalar, bw.tasks.size());
  const BatchKernelCase kernel_simd =
      run_batch_kernel_case(bw.tasks, proto::BatchAlignerKind::kSimd, bw.tasks.size());
  const double kernel_speedup = kernel_scalar.mcells_per_s > 0
                                    ? kernel_simd.mcells_per_s / kernel_scalar.mcells_per_s
                                    : 0;

  const TaskSetWorkload ont = make_task_set_workload(20, 0.12, 1'500);
  const TaskSetWorkload hifi = make_task_set_workload(15, 0.03, 12'000);
  const BatchKernelCase ont_scalar =
      run_batch_kernel_case(ont.tasks, proto::BatchAlignerKind::kScalar, 32);
  const std::vector<BatchKernelCase> ont_kernels = run_row_kernel_cases(ont.tasks, 32);
  const BatchKernelCase hifi_scalar =
      run_batch_kernel_case(hifi.tasks, proto::BatchAlignerKind::kScalar, 32);
  const std::vector<BatchKernelCase> hifi_kernels = run_row_kernel_cases(hifi.tasks, 32);

  const Stage2Rows stage2 = run_stage2_rows();

  std::string json;
  json += "{\n  \"bench\":\"kernels\",\n";
  char config_line[256];
  std::snprintf(config_line, sizeof(config_line),
                "  \"config\":{\"dataset\":\"ecoli30x\",\"genome_length\":20000,"
                "\"reads\":%zu,\"tasks\":%llu,\"kernel_pairs\":%zu},\n",
                w.dataset.reads.size(),
                static_cast<unsigned long long>(serial.tasks), bw.tasks.size());
  json += config_line;
  json += "  \"rows\":[\n";
  append_cache_pool_row(json, "align_tasks_serial_uncached", serial, true);
  append_cache_pool_row(json, "align_tasks_pool4_cached", pooled, true);
  append_cache_pool_row(json, "align_tasks_trace_off", trace.off, true);
  append_cache_pool_row(json, "align_tasks_trace_on", trace.on, true);
  append_join_row(json, "join_records_hifi_threads1", stage2.join[0]);
  append_join_row(json, "join_records_hifi_threads2", stage2.join[1]);
  append_codec_row(json, "wire_size_hifi", stage2.size);
  append_codec_row(json, "wire_encode_hifi", stage2.encode);
  append_codec_row(json, "wire_decode_hifi", stage2.decode);
  append_batch_kernel_row(json, "batch_xdrop_scalar", kernel_scalar, true);
  append_batch_kernel_row(json, "batch_xdrop_simd", kernel_simd, true);
  // batch_xdrop_tasks_{ont,hifi}_scalar, then one row per instantiation:
  // batch_xdrop_tasks_{ont,hifi}_{avx512,avx2,portable}.
  std::vector<std::pair<std::string, const BatchKernelCase*>> task_rows;
  for (const auto& [name, scalar, kernels] :
       {std::tuple{"ont", &ont_scalar, &ont_kernels},
        std::tuple{"hifi", &hifi_scalar, &hifi_kernels}}) {
    const std::string prefix = std::string("batch_xdrop_tasks_") + name + "_";
    task_rows.emplace_back(prefix + "scalar", scalar);
    for (const BatchKernelCase& c : *kernels)
      task_rows.emplace_back(prefix + (c.info.name + std::strlen("simd-")), &c);
  }
  for (std::size_t r = 0; r < task_rows.size(); ++r)
    append_batch_kernel_row(json, task_rows[r].first.c_str(), *task_rows[r].second,
                            r + 1 < task_rows.size());
  json += "  ],\n";
  char tail[512];
  std::snprintf(tail, sizeof(tail),
                "  \"pool_cache_speedup\":%.2f,\n  \"simd_kernel_speedup\":%.2f,\n"
                "  \"trace_compiled\":%d,\n  \"trace_overhead_pairs\":%zu,\n"
                "  \"trace_overhead_pct\":%.2f,\n  \"trace_overhead_q1_pct\":%.2f,\n"
                "  \"trace_overhead_q3_pct\":%.2f,\n  \"trace_overhead_resolved\":%s\n}\n",
                speedup, kernel_speedup, GNB_TRACE_ENABLED, trace.pairs, trace.median_pct,
                trace.q1_pct, trace.q3_pct, trace.resolved() ? "true" : "false");
  json += tail;

  std::ofstream out("BENCH_kernels.json");
  out << json;
  std::printf(
      "cache/pool: serial-uncached %.0f tasks/s, pool4-cached %.0f tasks/s "
      "(%.2fx, hit rate %.1f%%) -> BENCH_kernels.json\n",
      serial.tasks_per_s, pooled.tasks_per_s, speedup, pooled.hit_rate * 100);
  std::printf(
      "batch kernel: %s %.1f Mcells/s vs %s %.1f Mcells/s (%.2fx, occupancy "
      "%.1f%%) -> BENCH_kernels.json\n",
      kernel_scalar.info.name, kernel_scalar.mcells_per_s, kernel_simd.info.name,
      kernel_simd.mcells_per_s, kernel_speedup, kernel_simd.occupancy * 100);
  for (const auto& [name, scalar, kernels] :
       {std::tuple{"ont", &ont_scalar, &ont_kernels},
        std::tuple{"hifi", &hifi_scalar, &hifi_kernels}}) {
    std::printf("batch kernel on %s candidate tasks (median of %zu passes, thread CPU time): "
                "%s %.1f Mcells/s",
                name, kKernelPasses, scalar->info.name, scalar->mcells_per_s);
    for (const BatchKernelCase& c : *kernels)
      std::printf(", %s %.1f (occupancy %.1f%%)", c.info.name, c.mcells_per_s,
                  c.occupancy * 100);
    std::printf(" -> BENCH_kernels.json\n");
  }
  std::printf(
      "stage-2 join on hifi-shaped reads: %llu records -> %llu tasks in %.2f ms at 1 "
      "thread, %.2f ms at 2 -> BENCH_kernels.json\n",
      static_cast<unsigned long long>(stage2.join[0].items),
      static_cast<unsigned long long>(stage2.join[0].tasks), stage2.join[0].seconds * 1e3,
      stage2.join[1].seconds * 1e3);
  std::printf(
      "read codec (auto) on hifi-shaped reads: size %.0f, encode %.0f, decode %.0f "
      "Mbases/s -> BENCH_kernels.json\n",
      stage2.size.mitems_per_s(), stage2.encode.mitems_per_s(), stage2.decode.mitems_per_s());
  std::printf(
      "trace overhead (compiled %s, %zu interleaved pairs): median off %.0f tasks/s vs on "
      "%.0f tasks/s, paired overhead median %.2f%% (quartiles %.2f%% to %.2f%%)%s "
      "-> BENCH_kernels.json\n",
      GNB_TRACE_ENABLED ? "in" : "out", trace.pairs, trace.off.tasks_per_s,
      trace.on.tasks_per_s, trace.median_pct, trace.q1_pct, trace.q3_pct,
      trace.resolved() ? "" : ", unresolved: the quartiles include zero");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_cache_pool_report();
  return 0;
}
