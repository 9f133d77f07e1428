#include "core/calibrate.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "align/batch.hpp"
#include "align/xdrop.hpp"
#include "core/engine.hpp"
#include "seq/sequence.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "wl/genome.hpp"
#include "wl/sampler.hpp"

namespace gnb::core {

CostCalibration calibrate_cost_model(std::uint64_t seed, double min_seconds,
                                     proto::BatchAlignerKind kind) {
  Xoshiro256 rng(seed);
  wl::GenomeParams genome_params;
  genome_params.length = 20'000;
  genome_params.repeat_fraction = 0;
  const seq::Sequence genome = wl::generate_genome(genome_params, rng);

  wl::ReadSimParams read_params;
  read_params.coverage = 6;
  read_params.mean_length = 1500;
  read_params.error_rate = 0.12;
  read_params.shuffle = false;  // keep genome order: adjacent reads overlap
  const wl::SampledDataset dataset = wl::sample_reads(genome, read_params, rng);

  // Build overlapping pairs with a seed at the true overlap (approximate:
  // anchor the seed a little inside both reads — the X-drop extension does
  // not require a perfect anchor, only a plausible one).
  struct Pair {
    std::vector<std::uint8_t> a, b;
    align::Seed seed;
  };
  std::vector<Pair> pairs;
  for (std::size_t i = 0; i + 1 < dataset.reads.size() && pairs.size() < 64; ++i) {
    for (std::size_t j = i + 1; j < dataset.reads.size(); ++j) {
      if (wl::true_overlap(dataset.origins[i], dataset.origins[j]) < 600) continue;
      Pair pair;
      pair.a = dataset.reads.get(static_cast<seq::ReadId>(i)).sequence.unpack();
      auto b = dataset.reads.get(static_cast<seq::ReadId>(j)).sequence.unpack();
      if (dataset.origins[i].reverse_strand != dataset.origins[j].reverse_strand) {
        std::reverse(b.begin(), b.end());
        for (auto& code : b) code = seq::dna_complement(code);
      }
      pair.b = std::move(b);
      // Scan for a short exact match to use as the anchor.
      bool found = false;
      constexpr std::uint32_t kAnchor = 13;
      for (std::uint32_t pa = 0; pa + kAnchor < pair.a.size() && !found; pa += 17) {
        for (std::uint32_t pb = 0; pb + kAnchor < pair.b.size() && !found; pb += 3) {
          bool match = true;
          for (std::uint32_t t = 0; t < kAnchor && match; ++t)
            match = pair.a[pa + t] == pair.b[pb + t];
          if (match) {
            pair.seed = align::Seed{pa, pb, static_cast<std::uint16_t>(kAnchor), false};
            found = true;
          }
        }
      }
      if (found) pairs.push_back(std::move(pair));
      break;  // at most one pair per i
    }
  }

  CostCalibration calibration;
  if (pairs.empty()) return calibration;  // fall back to defaults

  // Time the kernel through the batch seam in engine-shaped batches (the
  // TaskRunner fills batches of kSlotsPerBatch), so the measured rate is the
  // rate the engine's selected backend actually delivers.
  const align::XDropParams params;
  const std::unique_ptr<align::BatchAligner> backend = align::make_batch_aligner(kind, params);
  std::vector<align::AlignTask> tasks_buf;
  tasks_buf.reserve(pairs.size());
  for (const Pair& pair : pairs)
    tasks_buf.push_back(align::AlignTask{pair.a, pair.b, pair.seed});
  constexpr std::size_t kBatch = TaskRunner::kSlotsPerBatch;
  std::uint64_t cells = 0;
  std::uint64_t tasks = 0;
  const double t0 = thread_cpu_seconds();
  double elapsed = 0;
  while (elapsed < min_seconds) {
    for (std::size_t begin = 0; begin < tasks_buf.size(); begin += kBatch) {
      const std::size_t end = std::min(tasks_buf.size(), begin + kBatch);
      const std::vector<align::Alignment> results = backend->align(
          std::span<const align::AlignTask>(tasks_buf).subspan(begin, end - begin));
      for (const align::Alignment& alignment : results) cells += alignment.cells;
      tasks += end - begin;
    }
    elapsed = thread_cpu_seconds() - t0;
  }
  if (cells > 0) calibration.cells_per_second = static_cast<double>(cells) / elapsed;

  // Per-task overhead: unpack + orient without the kernel.
  std::uint64_t overhead_iters = 0;
  const double o0 = thread_cpu_seconds();
  double overhead_elapsed = 0;
  while (overhead_elapsed < min_seconds / 4) {
    for (std::size_t i = 0; i < dataset.reads.size(); ++i) {
      auto codes = dataset.reads.get(static_cast<seq::ReadId>(i)).sequence.unpack();
      std::reverse(codes.begin(), codes.end());
      for (auto& code : codes) code = seq::dna_complement(code);
      // Defeat dead-code elimination.
      if (!codes.empty() && codes[0] > 4) std::abort();
      ++overhead_iters;
    }
    overhead_elapsed = thread_cpu_seconds() - o0;
  }
  if (overhead_iters > 0)
    calibration.overhead_per_task = overhead_elapsed / static_cast<double>(overhead_iters);
  return calibration;
}

}  // namespace gnb::core
