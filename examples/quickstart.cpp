// Quickstart: the full many-to-many long-read alignment flow on a small
// synthetic dataset, with both engines, verifying they agree.
//
//   1. synthesize a genome and sample error-prone long reads;
//   2. discover alignment tasks via the k-mer pipeline (BELLA filter);
//   3. run the bulk-synchronous engine and the asynchronous engine on a
//      4-rank SPMD world;
//   4. show that both produce the same accepted overlaps.
//
// Build & run:  ./build/examples/quickstart [--ranks=4] [--seed=1]

#include <algorithm>
#include <cstdio>

#include "align/overlap.hpp"
#include "core/async.hpp"
#include "core/bsp.hpp"
#include "kmer/bella_filter.hpp"
#include "pipeline/pipeline.hpp"
#include "rt/world.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "wl/presets.hpp"

using namespace gnb;

namespace {

std::vector<align::AlignmentRecord> run_engine(bool async_mode, std::size_t nranks,
                                               const seq::ReadStore& reads,
                                               const pipeline::TaskSet& tasks,
                                               const core::EngineConfig& config) {
  rt::World world(nranks);
  std::vector<std::vector<align::AlignmentRecord>> per_rank(nranks);
  world.run([&](rt::Rank& rank) {
    const auto& mine = tasks.per_rank[rank.id()];
    core::EngineResult result =
        async_mode ? core::async_align(rank, reads, tasks.bounds, mine, config)
                   : core::bsp_align(rank, reads, tasks.bounds, mine, config);
    per_rank[rank.id()] = std::move(result.accepted);
  });
  std::vector<align::AlignmentRecord> all;
  for (auto& records : per_rank) all.insert(all.end(), records.begin(), records.end());
  std::sort(all.begin(), all.end(),
            [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
              return std::tie(x.read_a, x.read_b) < std::tie(y.read_a, y.read_b);
            });
  return all;
}

/// "[begin,end)". Built by appending: GCC 12 reports a false -Wrestrict for
/// "[" + std::string.
std::string half_open(std::uint32_t begin, std::uint32_t end) {
  return std::string("[")
      .append(std::to_string(begin))
      .append(",")
      .append(std::to_string(end))
      .append(")");
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli("quickstart", "End-to-end many-to-many long-read alignment on synthetic data");
  auto ranks = cli.opt<std::uint64_t>("ranks", 4, "SPMD ranks (threads)");
  auto seed = cli.opt<std::uint64_t>("seed", 1, "dataset RNG seed");
  cli.parse(argc, argv);

  // 1. Dataset.
  const wl::DatasetSpec spec = wl::tiny_spec();
  const wl::SampledDataset dataset = wl::synthesize(spec, *seed);
  std::printf("dataset: %zu reads, %llu bases (coverage %.0fx, error %.0f%%)\n",
              dataset.reads.size(),
              static_cast<unsigned long long>(dataset.reads.total_bases()),
              spec.reads.coverage, spec.reads.error_rate * 100);

  // 2. Task discovery (k-mer histogram -> BELLA filter -> candidate pairs).
  const kmer::ReliableBounds bounds = kmer::reliable_bounds(kmer::BellaParams{
      spec.reads.coverage, spec.reads.error_rate, spec.k, 1e-3});
  pipeline::PipelineConfig config;
  config.k = spec.k;
  config.lo = bounds.lo;
  config.hi = bounds.hi;
  config.keep_frac = spec.keep_frac;
  const pipeline::TaskSet tasks = pipeline::run_serial(dataset.reads, config, *ranks);
  pipeline::check_owner_invariant(tasks);
  std::printf("k-mer filter: k=%u, retained multiplicity [%llu, %llu]\n", spec.k,
              static_cast<unsigned long long>(bounds.lo),
              static_cast<unsigned long long>(bounds.hi));
  std::printf("tasks: %llu candidate pairs over %llu ranks\n",
              static_cast<unsigned long long>(tasks.total_tasks()),
              static_cast<unsigned long long>(*ranks));

  // 3. Both engines.
  core::EngineConfig engine;
  engine.filter = align::AlignmentFilter{60, 120};
  const auto bsp = run_engine(false, *ranks, dataset.reads, tasks, engine);
  const auto async = run_engine(true, *ranks, dataset.reads, tasks, engine);

  // 4. Agreement + a peek at the output.
  std::printf("accepted overlaps: BSP=%zu Async=%zu -> %s\n", bsp.size(), async.size(),
              (bsp.size() == async.size()) ? "counts match" : "MISMATCH");
  std::size_t agree = 0;
  for (std::size_t i = 0; i < std::min(bsp.size(), async.size()); ++i) {
    if (bsp[i].read_a == async[i].read_a && bsp[i].read_b == async[i].read_b &&
        bsp[i].alignment.score == async[i].alignment.score)
      ++agree;
  }
  std::printf("record-level agreement: %zu / %zu\n", agree, bsp.size());

  Table table({"read A", "read B", "score", "A range", "B range", "orientation", "overlap kind"});
  for (std::size_t i = 0; i < std::min<std::size_t>(8, bsp.size()); ++i) {
    const auto& record = bsp[i];
    const auto& a = record.alignment;
    const auto kind = align::classify_overlap(
        a, dataset.reads.get(record.read_a).length(), dataset.reads.get(record.read_b).length());
    table.add_row({std::to_string(record.read_a), std::to_string(record.read_b),
                   static_cast<std::int64_t>(a.score),
                   half_open(a.a_begin, a.a_end), half_open(a.b_begin, a.b_end),
                   a.b_reversed ? std::string("rc") : std::string("fwd"),
                   std::string(align::to_string(kind))});
  }
  table.print("first accepted overlaps");
  return (bsp.size() == async.size() && agree == bsp.size()) ? 0 : 1;
}
