// Property-based backend parity: for *randomized* workloads — seeded
// datasets of varying size, rank counts in {1, 2, 4, 8}, and sweeps of the
// ProtoConfig knobs — the protocol quantities the engines execute must
// equal the ones proto::plan_exchange predicts, and the two engines must
// move the same payload. test_parity pins these invariants on one curated
// fixture; this suite hammers them across the configuration space, so a
// knob interaction that breaks the shared-protocol contract fails here
// first. Every case is reproducible from its printed (trial, knobs) tuple.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "align/batch.hpp"
#include "align/xdrop.hpp"
#include "core/async.hpp"
#include "core/bsp.hpp"
#include "pipeline/pipeline.hpp"
#include "proto/config.hpp"
#include "proto/exchange_plan.hpp"
#include "proto/pull_index.hpp"
#include "rt/world.hpp"
#include "sim/assignment.hpp"
#include "util/rng.hpp"
#include "wl/presets.hpp"

using namespace gnb;

namespace {

struct Workload {
  std::size_t ranks = 0;
  wl::SampledDataset dataset;
  pipeline::TaskSet tasks;
  sim::SimAssignment assignment;
};

/// Deterministic "random" workload for one trial: genome size, dataset
/// seed, and rank count all derive from the trial index.
Workload make_workload(std::uint64_t trial) {
  Xoshiro256 rng(0xF022ULL * (trial + 1));
  Workload w;
  const std::size_t rank_choices[] = {1, 2, 4, 8};
  w.ranks = rank_choices[rng.below(4)];
  wl::DatasetSpec spec = wl::ecoli30x_spec();
  spec.genome.length = 8'000 + 2'000 * rng.below(5);  // 8k..16k bases
  w.dataset = wl::synthesize(spec, 100 + trial);
  pipeline::PipelineConfig config;
  config.k = spec.k;
  config.lo = 2;
  config.hi = 8;
  w.tasks = pipeline::run_serial(w.dataset.reads, config, w.ranks);
  w.assignment =
      sim::assignment_from_tasks(w.tasks.per_rank, w.dataset.reads, w.tasks.bounds,
                                 proto::wire_compression_from_env());
  return w;
}

/// The proto-side predictions for this workload under `config`.
proto::ExchangePlan plan_for(const Workload& w, const proto::ProtoConfig& config) {
  std::vector<proto::RankExchangeInput> inputs(w.ranks);
  for (std::size_t r = 0; r < w.ranks; ++r) {
    inputs[r].pull_bytes = w.assignment.ranks[r].pull_bytes();
    inputs[r].serve_bytes = w.assignment.serve_bytes[r];
    std::vector<std::uint64_t> per_owner(w.ranks, 0);
    for (const sim::Pull& pull : w.assignment.ranks[r].pulls) ++per_owner[pull.owner];
    inputs[r].pulls_per_owner = per_owner;
    inputs[r].budget = proto::effective_round_budget(config, 0, 0);
  }
  return proto::plan_exchange(inputs, config);
}

struct Executed {
  std::uint64_t rounds = 0;  // max over ranks
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

Executed run_engine(bool async_mode, const Workload& w, const core::EngineConfig& config) {
  rt::World world(w.ranks);
  std::vector<core::EngineResult> results(w.ranks);
  world.run([&](rt::Rank& rank) {
    results[rank.id()] =
        async_mode ? core::async_align(rank, w.dataset.reads, w.tasks.bounds,
                                       w.tasks.per_rank[rank.id()], config)
                   : core::bsp_align(rank, w.dataset.reads, w.tasks.bounds,
                                     w.tasks.per_rank[rank.id()], config);
  });
  Executed executed;
  for (const auto& result : results) {
    executed.rounds = std::max(executed.rounds, result.rounds);
    executed.messages += result.messages;
    executed.bytes += result.exchange_bytes_received;
  }
  return executed;
}

}  // namespace

TEST(FuzzParity, ExecutedProtocolMatchesPlanAcrossConfigSpace) {
  constexpr std::uint64_t kTrials = 6;
  const std::uint64_t budgets[] = {16'384, 65'536, 0};  // 0 = unbounded default
  const std::size_t batches[] = {1, 3, 7};
  const std::size_t windows[] = {2, 16, 512};

  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const Workload w = make_workload(trial);
    Xoshiro256 rng(0xC0FFEEULL + trial);
    core::EngineConfig config;
    config.skip_compute = true;  // parity is a communication-structure property
    if (const std::uint64_t budget = budgets[rng.below(3)]; budget != 0)
      config.proto.bsp_round_budget = budget;
    config.proto.async_batch = batches[rng.below(3)];
    config.proto.async_window = windows[rng.below(3)];
    SCOPED_TRACE("trial=" + std::to_string(trial) + " ranks=" + std::to_string(w.ranks) +
                 " budget=" + std::to_string(config.proto.bsp_round_budget) +
                 " batch=" + std::to_string(config.proto.async_batch) +
                 " window=" + std::to_string(config.proto.async_window));

    const proto::ExchangePlan plan = plan_for(w, config.proto);

    const Executed bsp = run_engine(false, w, config);
    EXPECT_EQ(bsp.rounds, plan.rounds);
    EXPECT_EQ(bsp.messages, plan.bsp_messages);
    EXPECT_EQ(bsp.bytes, plan.exchange_bytes);

    const Executed async = run_engine(true, w, config);
    EXPECT_EQ(async.messages, plan.async_messages);
    EXPECT_EQ(async.bytes, plan.exchange_bytes);

    // The two backends move the same payload: the exchange is a property of
    // the task assignment, not of the coordination strategy (the paper's
    // premise that the engines are interchangeable).
    EXPECT_EQ(bsp.bytes, async.bytes);
  }
}

TEST(FuzzParity, SingleRankRunsExchangeNothing) {
  // Degenerate rank count: every task is local-local; the plan and both
  // engines must agree on zero exchange.
  for (std::uint64_t trial = 0; trial < 2; ++trial) {
    Workload w = make_workload(trial);
    if (w.ranks != 1) {  // rebuild pinned at one rank
      w.ranks = 1;
      pipeline::PipelineConfig config;
      config.k = wl::ecoli30x_spec().k;
      config.lo = 2;
      config.hi = 8;
      w.tasks = pipeline::run_serial(w.dataset.reads, config, w.ranks);
      w.assignment =
          sim::assignment_from_tasks(w.tasks.per_rank, w.dataset.reads, w.tasks.bounds,
                                 proto::wire_compression_from_env());
    }
    core::EngineConfig config;
    config.skip_compute = true;
    const proto::ExchangePlan plan = plan_for(w, config.proto);
    EXPECT_EQ(plan.exchange_bytes, 0u);
    const Executed bsp = run_engine(false, w, config);
    const Executed async = run_engine(true, w, config);
    EXPECT_EQ(bsp.bytes, 0u);
    EXPECT_EQ(async.bytes, 0u);
    EXPECT_EQ(async.messages, plan.async_messages);
  }
}

namespace {

/// Full-compute run returning raw per-rank results (per-rank accepted order
/// preserved — the byte-identity surface).
std::vector<core::EngineResult> run_full(bool async_mode, const Workload& w,
                                         const core::EngineConfig& config) {
  rt::World world(w.ranks);
  std::vector<core::EngineResult> results(w.ranks);
  world.run([&](rt::Rank& rank) {
    results[rank.id()] =
        async_mode ? core::async_align(rank, w.dataset.reads, w.tasks.bounds,
                                       w.tasks.per_rank[rank.id()], config)
                   : core::bsp_align(rank, w.dataset.reads, w.tasks.bounds,
                                     w.tasks.per_rank[rank.id()], config);
  });
  return results;
}

/// Stable full-field order for in-rank comparison: BSP merges are
/// deterministic, but async merges in reply-arrival order, which varies run
/// to run even at one thread — the contract is per-rank *multiset* identity.
std::vector<align::AlignmentRecord> full_sorted(std::vector<align::AlignmentRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
              return std::tie(x.read_a, x.read_b, x.alignment.score, x.alignment.cells,
                              x.alignment.a_begin, x.alignment.b_begin) <
                     std::tie(y.read_a, y.read_b, y.alignment.score, y.alignment.cells,
                              y.alignment.a_begin, y.alignment.b_begin);
            });
  return records;
}

void expect_byte_identical(const std::vector<core::EngineResult>& base,
                           const std::vector<core::EngineResult>& got,
                           bool sort_within_rank) {
  ASSERT_EQ(base.size(), got.size());
  for (std::size_t r = 0; r < base.size(); ++r) {
    EXPECT_EQ(base[r].tasks_done, got[r].tasks_done) << "rank " << r;
    EXPECT_EQ(base[r].cells, got[r].cells) << "rank " << r;
    ASSERT_EQ(base[r].accepted.size(), got[r].accepted.size()) << "rank " << r;
    const auto xs = sort_within_rank ? full_sorted(base[r].accepted) : base[r].accepted;
    const auto ys = sort_within_rank ? full_sorted(got[r].accepted) : got[r].accepted;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const align::AlignmentRecord& a = xs[i];
      const align::AlignmentRecord& b = ys[i];
      EXPECT_TRUE(a.read_a == b.read_a && a.read_b == b.read_b &&
                  a.alignment.score == b.alignment.score &&
                  a.alignment.cells == b.alignment.cells &&
                  a.alignment.a_begin == b.alignment.a_begin &&
                  a.alignment.a_end == b.alignment.a_end &&
                  a.alignment.b_begin == b.alignment.b_begin &&
                  a.alignment.b_end == b.alignment.b_end &&
                  a.alignment.b_reversed == b.alignment.b_reversed)
          << "rank " << r << " record " << i << " diverged";
    }
  }
}

}  // namespace

TEST(FuzzParity, ComputeThreadsByteIdenticalAcrossWorkloads) {
  // The determinism contract of core::TaskRunner: at any thread count, each
  // rank's accepted records, tasks_done and cells equal the serial
  // engine's — in exact order for BSP (deterministic submission order),
  // as a multiset for async — across randomized workloads and both
  // backends.
  constexpr std::uint64_t kTrials = 3;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const Workload w = make_workload(trial);
    for (const bool async_mode : {false, true}) {
      core::EngineConfig serial;  // full compute
      serial.proto.compute_threads = 1;
      const auto base = run_full(async_mode, w, serial);
      for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
        core::EngineConfig pooled;
        pooled.proto.compute_threads = threads;
        SCOPED_TRACE("trial=" + std::to_string(trial) +
                     " engine=" + (async_mode ? "async" : "bsp") +
                     " threads=" + std::to_string(threads));
        expect_byte_identical(base, run_full(async_mode, w, pooled),
                              /*sort_within_rank=*/async_mode);
      }
    }
  }
}

namespace {

/// Randomized task list for the kernel-level backend sweep. Sequences carry
/// occasional N codes, pairs are a mix of mutated copies (live, wide bands)
/// and unrelated sequence (early termination), and seeds sit at random
/// interior anchors with random orientation flags.
struct KernelFuzz {
  std::vector<std::vector<std::uint8_t>> storage;  // 2 per task, stable
  std::vector<align::Seed> seeds;
  align::XDropParams params;

  [[nodiscard]] std::vector<align::AlignTask> tasks() const {
    std::vector<align::AlignTask> out;
    out.reserve(seeds.size());
    for (std::size_t t = 0; t < seeds.size(); ++t)
      out.push_back(align::AlignTask{storage[2 * t], storage[2 * t + 1], seeds[t]});
    return out;
  }
};

std::vector<std::uint8_t> random_codes(Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> codes(n);
  for (auto& code : codes)
    code = rng.below(48) == 0 ? std::uint8_t{4}  // sprinkle Ns
                              : static_cast<std::uint8_t>(rng.below(4));
  return codes;
}

KernelFuzz make_kernel_fuzz(std::uint64_t trial, std::size_t n_tasks) {
  Xoshiro256 rng(0xBA7C4ULL * (trial + 1));
  KernelFuzz fuzz;
  fuzz.params.x = std::int32_t{10} << rng.below(4);  // 10..80
  fuzz.params.scoring.match = 1 + static_cast<std::int32_t>(rng.below(3));
  fuzz.params.scoring.mismatch = -1 - static_cast<std::int32_t>(rng.below(4));
  fuzz.params.scoring.gap = -1 - static_cast<std::int32_t>(rng.below(4));
  for (std::size_t t = 0; t < n_tasks; ++t) {
    const std::size_t na = 60 + rng.below(540);
    std::vector<std::uint8_t> a = random_codes(rng, na);
    std::vector<std::uint8_t> b;
    if (rng.below(4) != 0) {
      // Related: mutated copy of `a` at ~12% error.
      b = a;
      for (auto& code : b)
        if (rng.below(8) == 0) code = static_cast<std::uint8_t>(rng.below(4));
    } else {
      b = random_codes(rng, 60 + rng.below(540));
    }
    // Plant an exact anchor at random interior positions.
    const std::uint16_t k = static_cast<std::uint16_t>(11 + rng.below(7));
    const std::uint32_t pa = static_cast<std::uint32_t>(rng.below(a.size() - k));
    const std::uint32_t pb = static_cast<std::uint32_t>(rng.below(b.size() - k));
    for (std::uint32_t i = 0; i < k; ++i) b[pb + i] = a[pa + i];
    fuzz.storage.push_back(std::move(a));
    fuzz.storage.push_back(std::move(b));
    fuzz.seeds.push_back(align::Seed{pa, pb, k, rng.below(2) == 1});
  }
  return fuzz;
}

/// Related long reads in the wide-band regime of real candidate sets: `b`
/// is an overlapping stretch of `a` re-read at `error` (substitutions and
/// 1-base indels in equal parts, about 0.2 % N), joined to `a` by an exact
/// 17-base anchor. 1.5-6 kb reads; x and the error rate set the band width.
KernelFuzz make_long_read_fuzz(std::uint64_t trial, double error, std::int32_t x,
                               bool random_scoring, std::size_t n_tasks) {
  Xoshiro256 rng(0x10A6ULL * (trial + 1));
  KernelFuzz fuzz;
  fuzz.params.x = x;
  if (random_scoring) {
    fuzz.params.scoring.match = 1 + static_cast<std::int32_t>(rng.below(3));
    fuzz.params.scoring.mismatch = -1 - static_cast<std::int32_t>(rng.below(4));
    fuzz.params.scoring.gap = -1 - static_cast<std::int32_t>(rng.below(4));
  }
  const auto base = [&] {
    return rng.below(500) == 0 ? std::uint8_t{4} : static_cast<std::uint8_t>(rng.below(4));
  };
  // Append a[from, to) to `out` as the sequencer would re-read it.
  const auto reread = [&](const std::vector<std::uint8_t>& a, std::size_t from, std::size_t to,
                          std::vector<std::uint8_t>& out) {
    for (std::size_t i = from; i < to; ++i) {
      const double roll = rng.uniform();
      if (roll < error / 3) continue;                   // deletion
      if (roll < 2 * error / 3) out.push_back(base());  // insertion before a[i]
      out.push_back(roll < error && roll >= 2 * error / 3 ? base() : a[i]);
    }
  };
  for (std::size_t t = 0; t < n_tasks; ++t) {
    std::vector<std::uint8_t> a(1'500 + rng.below(4'500));
    for (auto& code : a) code = base();
    // b covers a[lo, hi): a dovetail or containment of at least half of a.
    const std::size_t lo = rng.below(a.size() / 4);
    const std::size_t hi = a.size() - rng.below(a.size() / 4);
    constexpr std::uint16_t k = 17;
    const std::size_t pa = lo + rng.below(hi - lo - k);
    std::vector<std::uint8_t> b;
    reread(a, lo, pa, b);
    const auto pb = static_cast<std::uint32_t>(b.size());
    b.insert(b.end(), a.begin() + static_cast<std::ptrdiff_t>(pa),
             a.begin() + static_cast<std::ptrdiff_t>(pa + k));
    reread(a, pa + k, hi, b);
    fuzz.storage.push_back(std::move(a));
    fuzz.storage.push_back(std::move(b));
    fuzz.seeds.push_back(align::Seed{static_cast<std::uint32_t>(pa), pb, k, false});
  }
  return fuzz;
}

void expect_alignments_identical(const std::vector<align::Alignment>& base,
                                 const std::vector<align::Alignment>& got) {
  ASSERT_EQ(base.size(), got.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_TRUE(base[i].score == got[i].score && base[i].a_begin == got[i].a_begin &&
                base[i].a_end == got[i].a_end && base[i].b_begin == got[i].b_begin &&
                base[i].b_end == got[i].b_end &&
                base[i].b_reversed == got[i].b_reversed &&
                base[i].cells == got[i].cells)
        << "task " << i << ": scalar {score=" << base[i].score << " a=["
        << base[i].a_begin << "," << base[i].a_end << ") b=[" << base[i].b_begin
        << "," << base[i].b_end << ") cells=" << base[i].cells << "} vs simd {score="
        << got[i].score << " a=[" << got[i].a_begin << "," << got[i].a_end << ") b=["
        << got[i].b_begin << "," << got[i].b_end << ") cells=" << got[i].cells << "}";
  }
}

}  // namespace

TEST(FuzzParity, BatchAlignerBackendsBitIdenticalAcrossScoringAndBatchSizes) {
  // The contract of the SIMD row kernel: for randomized reads, randomized
  // Scoring/x parameters and batch sizes around 8 and 32, the SIMD
  // backend's Alignment output — score, coordinates, per-task cells —
  // equals the scalar backend's bit for bit. The scalar backend itself is
  // pinned to xdrop_align by construction (test_align covers that seam).
  const std::size_t batch_sizes[] = {1, 7, 8, 9, 16, 33};
  std::uint64_t trial = 0;
  for (const std::size_t n_tasks : batch_sizes) {
    for (std::uint64_t rep = 0; rep < 3; ++rep, ++trial) {
      const KernelFuzz fuzz = make_kernel_fuzz(trial, n_tasks);
      SCOPED_TRACE("trial=" + std::to_string(trial) + " tasks=" + std::to_string(n_tasks) +
                   " x=" + std::to_string(fuzz.params.x) +
                   " match=" + std::to_string(fuzz.params.scoring.match) +
                   " mismatch=" + std::to_string(fuzz.params.scoring.mismatch) +
                   " gap=" + std::to_string(fuzz.params.scoring.gap));
      const std::vector<align::AlignTask> tasks = fuzz.tasks();
      const auto scalar =
          align::make_batch_aligner(proto::BatchAlignerKind::kScalar, fuzz.params);
      const auto simd =
          align::make_batch_aligner(proto::BatchAlignerKind::kSimd, fuzz.params);
      expect_alignments_identical(scalar->align(tasks), simd->align(tasks));
      // The backends also agree with the per-task oracle.
      const std::vector<align::Alignment> direct = [&] {
        std::vector<align::Alignment> out;
        for (const align::AlignTask& task : tasks)
          out.push_back(align::xdrop_align(task.a, task.b, task.seed, fuzz.params));
        return out;
      }();
      expect_alignments_identical(direct, scalar->align(tasks));
    }
  }
}

TEST(FuzzParity, BatchAlignerBackendsBitIdenticalOnLongReads) {
  // The wide-band regime: on HiFi-like candidate sets most DP cells sit in
  // rows wider than 256, which the short reads above never reach. Related
  // 1.5-6 kb reads at 3 % and 12 % error, x in {49, 150}, default and
  // randomized scoring, one batch each.
  std::uint64_t trial = 0;
  for (const double error : {0.03, 0.12}) {
    for (const std::int32_t x : {49, 150}) {
      for (const bool random_scoring : {false, true}) {
        const KernelFuzz fuzz = make_long_read_fuzz(trial++, error, x, random_scoring, 8);
        SCOPED_TRACE("trial=" + std::to_string(trial - 1) + " error=" + std::to_string(error) +
                     " x=" + std::to_string(x) +
                     " match=" + std::to_string(fuzz.params.scoring.match) +
                     " mismatch=" + std::to_string(fuzz.params.scoring.mismatch) +
                     " gap=" + std::to_string(fuzz.params.scoring.gap));
        const std::vector<align::AlignTask> tasks = fuzz.tasks();
        const auto scalar =
            align::make_batch_aligner(proto::BatchAlignerKind::kScalar, fuzz.params);
        const auto simd =
            align::make_batch_aligner(proto::BatchAlignerKind::kSimd, fuzz.params);
        expect_alignments_identical(scalar->align(tasks), simd->align(tasks));
      }
    }
  }
}

TEST(FuzzParity, SimdBackendByteIdenticalAtEngineLevel) {
  // End-to-end: swapping the batch aligner under the engines must not change
  // a single byte of any rank's EngineResult, serial or pooled, BSP or
  // async. (Same comparison discipline as the compute-threads test: exact
  // order for BSP, multiset for async.)
  constexpr std::uint64_t kTrials = 2;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    const Workload w = make_workload(trial);
    for (const bool async_mode : {false, true}) {
      core::EngineConfig scalar;
      scalar.proto.compute_threads = 1;
      scalar.proto.batch_aligner = proto::BatchAlignerKind::kScalar;
      const auto base = run_full(async_mode, w, scalar);
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        core::EngineConfig simd;
        simd.proto.compute_threads = threads;
        simd.proto.batch_aligner = proto::BatchAlignerKind::kSimd;
        SCOPED_TRACE("trial=" + std::to_string(trial) +
                     " engine=" + (async_mode ? "async" : "bsp") +
                     " threads=" + std::to_string(threads));
        expect_byte_identical(base, run_full(async_mode, w, simd),
                              /*sort_within_rank=*/async_mode);
      }
    }
  }
}

TEST(FuzzParity, PullSetsAreDeduplicatedUnderEveryWorkload) {
  // Invariant behind the byte parity: at most one pull per distinct remote
  // read, whatever the workload shape (paper §3.2).
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const Workload w = make_workload(trial);
    for (std::size_t r = 0; r < w.ranks; ++r) {
      const auto& pulls = w.assignment.ranks[r].pulls;
      for (std::size_t i = 1; i < pulls.size(); ++i)
        EXPECT_LT(pulls[i - 1].read, pulls[i].read)
            << "trial " << trial << " rank " << r << ": duplicate or unsorted pull";
    }
  }
}
