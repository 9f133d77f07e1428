// Table 1: the evaluation workloads — reads and alignment tasks per
// dataset, for the synthetic analogues side-by-side with the paper's
// numbers. The synthetic datasets are generated and pushed through the
// real k-mer pipeline (histogram -> BELLA reliable band -> candidate
// pairs); the model-scale counts used by the scaling figures are shown in
// the last columns.

#include <cstdio>

#include "kmer/bella_filter.hpp"
#include "pipeline/pipeline.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "wl/presets.hpp"

using namespace gnb;

int main(int argc, char** argv) {
  Cli cli("bench_table1", "Workload inventory (Table 1)");
  auto seed = cli.opt<std::uint64_t>("seed", 42, "dataset RNG seed");
  auto only = cli.opt<std::string>("only", "", "restrict to one dataset by name");
  cli.parse(argc, argv);

  Table table({"dataset", "species", "reads(sim)", "tasks(sim)", "tasks/read(sim)",
               "reads(paper)", "tasks(paper)", "tasks/read(paper)", "kmer band"});
  for (const wl::DatasetSpec& spec : wl::paper_specs()) {
    if (!only->empty() && spec.name != *only) continue;
    const wl::SampledDataset dataset = wl::synthesize(spec, *seed);
    const kmer::ReliableBounds bounds = kmer::reliable_bounds(
        kmer::BellaParams{spec.reads.coverage, spec.reads.error_rate, spec.k, 1e-3});
    pipeline::PipelineConfig config;
    config.k = spec.k;
    config.lo = bounds.lo;
    config.hi = bounds.hi;
    config.keep_frac = spec.keep_frac;
    const std::vector<kmer::AlignTask> tasks =
        kmer::discover_tasks(dataset.reads, config.k, config.lo, config.hi, config.keep_frac);
    table.add_row(
        {spec.name, spec.species, static_cast<std::uint64_t>(dataset.reads.size()),
         static_cast<std::uint64_t>(tasks.size()),
         dataset.reads.size() ? static_cast<double>(tasks.size()) /
                                    static_cast<double>(dataset.reads.size())
                              : 0.0,
         spec.paper_reads, spec.paper_tasks,
         static_cast<double>(spec.paper_tasks) / static_cast<double>(spec.paper_reads),
         std::string("[")
             .append(std::to_string(bounds.lo))
             .append(",")
             .append(std::to_string(bounds.hi))
             .append("]")});
    std::printf("[table1] %s: %zu reads, %zu tasks\n", spec.name.c_str(), dataset.reads.size(),
                tasks.size());
  }
  table.print("Table 1 — evaluation workloads (synthetic analogues vs paper)");
  return 0;
}
