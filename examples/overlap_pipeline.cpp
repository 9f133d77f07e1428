// End-to-end DiBELLA-style overlap pipeline with quality evaluation.
//
// Generates an E. coli-30x-like synthetic dataset *with ground truth*
// (each read remembers its genome interval), runs the distributed k-mer
// pipeline inside an SPMD world, aligns with both engines, and evaluates
// the accepted overlaps against the truth: how many genuinely-overlapping
// pairs were found (recall) and how many accepted alignments correspond to
// real overlaps (precision). Also prints the Fig-2 overlap-kind breakdown.
//
// Run: ./build/examples/overlap_pipeline [--ranks=4] [--genome=60000] ...

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

#include "align/overlap.hpp"
#include "core/async.hpp"
#include "core/bsp.hpp"
#include "kmer/bella_filter.hpp"
#include "pipeline/distributed.hpp"
#include "pipeline/pipeline.hpp"
#include "rt/world.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "wl/presets.hpp"

using namespace gnb;

int main(int argc, char** argv) {
  Cli cli("overlap_pipeline", "DiBELLA-style pipeline with ground-truth evaluation");
  auto ranks = cli.opt<std::uint64_t>("ranks", 4, "SPMD ranks (threads)");
  auto genome_len = cli.opt<std::uint64_t>("genome", 60'000, "genome length (bases)");
  auto coverage = cli.opt<double>("coverage", 15, "sequencing depth");
  auto error_rate = cli.opt<double>("error", 0.12, "per-base error rate");
  auto seed = cli.opt<std::uint64_t>("seed", 3, "RNG seed");
  cli.parse(argc, argv);

  // --- dataset with ground truth ---
  wl::DatasetSpec spec = wl::ecoli30x_spec();
  spec.genome.length = *genome_len;
  spec.reads.coverage = *coverage;
  spec.reads.error_rate = *error_rate;
  const wl::SampledDataset dataset = wl::synthesize(spec, *seed);
  std::printf("dataset: %zu reads, %llu bases, %.0fx coverage, %.0f%% error\n",
              dataset.reads.size(),
              static_cast<unsigned long long>(dataset.reads.total_bases()), *coverage,
              *error_rate * 100);

  // --- distributed pipeline (k-mer histogram -> filter -> tasks) ---
  const kmer::ReliableBounds kmer_bounds = kmer::reliable_bounds(
      kmer::BellaParams{*coverage, *error_rate, spec.k, 1e-3});
  pipeline::PipelineConfig config;
  config.k = spec.k;
  config.lo = kmer_bounds.lo;
  config.hi = kmer_bounds.hi;
  config.keep_frac = spec.keep_frac;

  const pipeline::TaskSet tasks = pipeline::run_distributed(dataset.reads, config, *ranks);
  pipeline::check_owner_invariant(tasks);
  std::printf("pipeline: k=%u, reliable band [%llu, %llu], %llu tasks discovered\n", spec.k,
              static_cast<unsigned long long>(kmer_bounds.lo),
              static_cast<unsigned long long>(kmer_bounds.hi),
              static_cast<unsigned long long>(tasks.total_tasks()));

  // --- both engines ---
  core::EngineConfig engine;
  engine.filter = align::AlignmentFilter{60, 150};
  auto run = [&](bool async_mode) {
    rt::World world(*ranks);
    std::vector<std::vector<align::AlignmentRecord>> accepted(*ranks);
    world.run([&](rt::Rank& rank) {
      core::EngineResult result =
          async_mode
              ? core::async_align(rank, dataset.reads, tasks.bounds,
                                  tasks.per_rank[rank.id()], engine)
              : core::bsp_align(rank, dataset.reads, tasks.bounds, tasks.per_rank[rank.id()],
                                engine);
      accepted[rank.id()] = std::move(result.accepted);
    });
    std::vector<align::AlignmentRecord> all;
    for (auto& records : accepted) all.insert(all.end(), records.begin(), records.end());
    std::sort(all.begin(), all.end(),
              [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
                return std::tie(x.read_a, x.read_b) < std::tie(y.read_a, y.read_b);
              });
    return all;
  };
  const auto bsp = run(false);
  const auto async = run(true);
  std::printf("engines: BSP accepted %zu, Async accepted %zu (%s)\n", bsp.size(), async.size(),
              bsp.size() == async.size() ? "identical counts" : "MISMATCH");

  // --- evaluation against ground truth ---
  constexpr std::size_t kMinTrueOverlap = 200;
  std::size_t true_positive = 0;
  std::map<align::OverlapKind, std::size_t> kinds;
  for (const auto& record : bsp) {
    const std::size_t truth =
        wl::true_overlap(dataset.origins[record.read_a], dataset.origins[record.read_b]);
    if (truth >= kMinTrueOverlap) ++true_positive;
    const auto kind = align::classify_overlap(record.alignment,
                                              dataset.reads.get(record.read_a).length(),
                                              dataset.reads.get(record.read_b).length());
    ++kinds[kind];
  }
  std::size_t truly_overlapping_pairs = 0;
  for (std::size_t i = 0; i < dataset.origins.size(); ++i)
    for (std::size_t j = i + 1; j < dataset.origins.size(); ++j)
      if (wl::true_overlap(dataset.origins[i], dataset.origins[j]) >= kMinTrueOverlap)
        ++truly_overlapping_pairs;

  const double precision =
      bsp.empty() ? 0 : static_cast<double>(true_positive) / static_cast<double>(bsp.size());
  const double recall = truly_overlapping_pairs == 0
                            ? 0
                            : static_cast<double>(true_positive) /
                                  static_cast<double>(truly_overlapping_pairs);
  std::printf("quality vs ground truth (>=%zu bp true overlap): precision %.3f, recall %.3f "
              "(%zu/%zu true pairs found)\n",
              kMinTrueOverlap, precision, recall, true_positive, truly_overlapping_pairs);

  Table table({"overlap kind (Fig. 2)", "count"});
  for (const auto& [kind, count] : kinds)
    table.add_row({std::string(align::to_string(kind)), static_cast<std::uint64_t>(count)});
  table.print("accepted overlap classification");
  return bsp.size() == async.size() ? 0 : 1;
}
