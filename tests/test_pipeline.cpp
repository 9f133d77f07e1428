// Tests for the DiBELLA pipeline: serial reference, task assignment with
// the owner invariant, and serial/distributed equivalence on clean and
// hostile reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "kmer/bella_filter.hpp"
#include "pipeline/distributed.hpp"
#include "pipeline/pipeline.hpp"
#include "rt/world.hpp"
#include "util/rng.hpp"
#include "wl/presets.hpp"

using namespace gnb;
using namespace gnb::pipeline;

namespace {

struct Fixture {
  wl::SampledDataset dataset;
  PipelineConfig config;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    wl::DatasetSpec spec = wl::tiny_spec();
    spec.genome.length = 15'000;
    spec.reads.coverage = 8;
    fx.dataset = wl::synthesize(spec, 11);
    const auto bounds = kmer::reliable_bounds(
        kmer::BellaParams{spec.reads.coverage, spec.reads.error_rate, spec.k, 1e-3});
    fx.config.k = spec.k;
    fx.config.lo = bounds.lo;
    fx.config.hi = bounds.hi;
    fx.config.keep_frac = 1.0;
    return fx;
  }();
  return f;
}

std::string random_dna(std::size_t length, Xoshiro256& rng) {
  std::string s(length, 'A');
  for (auto& ch : s) ch = seq::dna_decode(static_cast<std::uint8_t>(rng.below(4)));
  return s;
}

std::string reverse_complement(const std::string& bases) {
  return seq::Sequence::from_string(bases).reverse_complement().to_string();
}

/// Reads built to trip the stage-2/3 kernel: overlapping reads from both
/// strands of a genome carrying long homopolymers, reads shorter than any
/// k, an all-N read, N runs inside and at both ends of a read, a pure
/// homopolymer, a block repeated inside one read, and reads sharing a
/// reverse-strand seed exactly at their ends.
const seq::ReadStore& hostile_reads() {
  static const seq::ReadStore store = [] {
    Xoshiro256 rng(23);
    std::string genome = random_dna(4'000, rng);
    genome.replace(700, 60, std::string(60, 'A'));
    genome.replace(2'100, 45, std::string(45, 'C'));
    seq::ReadStore reads;
    const auto add = [&reads](const std::string& bases) {
      reads.add("h" + std::to_string(reads.size()), seq::Sequence::from_string(bases));
    };
    for (std::size_t start = 0; start + 600 <= genome.size(); start += 150) {
      const std::string read = genome.substr(start, 600);
      add(start / 150 % 2 == 1 ? reverse_complement(read) : read);
    }
    add("ACGTACGTACGTACG");  // shorter than k
    add("A");
    add(std::string(300, 'N'));
    std::string gapped = genome.substr(1'000, 500);
    gapped.replace(0, 3, "NNN");
    gapped.replace(200, 10, std::string(10, 'N'));
    gapped.replace(497, 3, "NNN");
    add(gapped);
    add(std::string(400, 'A'));
    const std::string block = genome.substr(2'500, 80);
    add(genome.substr(2'400, 100) + block + random_dna(30, rng) + block);
    // 40 reverse-complemented genome bases at the very start / end of a
    // read: their seeds meet tiling reads of both strands at a read end.
    add(reverse_complement(genome.substr(3'300, 40)) + random_dna(200, rng));
    add(random_dna(200, rng) + reverse_complement(genome.substr(3'520, 40)));
    return reads;
  }();
  return store;
}

bool tasks_equal(const kmer::AlignTask& x, const kmer::AlignTask& y) {
  return x.a == y.a && x.b == y.b && x.seed.a_pos == y.seed.a_pos &&
         x.seed.b_pos == y.seed.b_pos && x.seed.length == y.seed.length &&
         x.seed.b_reversed == y.seed.b_reversed;
}

}  // namespace

TEST(Pipeline, BoundsCoverStore) {
  const auto& f = fixture();
  const auto bounds = compute_bounds(f.dataset.reads, 4);
  ASSERT_EQ(bounds.size(), 5u);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), f.dataset.reads.size());
}

TEST(Pipeline, SerialSatisfiesOwnerInvariant) {
  const auto& f = fixture();
  const TaskSet tasks = run_serial(f.dataset.reads, f.config, 4);
  check_owner_invariant(tasks);  // aborts on violation
  EXPECT_GT(tasks.total_tasks(), 0u);
}

TEST(Pipeline, AssignBalancesCounts) {
  // Greedy two-choice balancing under the owner invariant, visiting tasks
  // in pair-hash order: every rank ends within one task of the mean. A
  // visit order that favours low rank ids, such as (a, b) order, fails
  // this (max/mean 1.26-1.62 on this fixture).
  const auto& f = fixture();
  for (const std::size_t nranks : {2u, 3u, 4u, 6u, 8u}) {
    const TaskSet tasks = run_serial(f.dataset.reads, f.config, nranks);
    check_owner_invariant(tasks);  // aborts on violation
    const auto mean_ceil = (tasks.total_tasks() + nranks - 1) / nranks;
    for (std::size_t r = 0; r < nranks; ++r) {
      const auto& mine = tasks.per_rank[r];
      EXPECT_LE(mine.size(), mean_ceil + 1) << "rank " << r << " of " << nranks;
      EXPECT_TRUE(std::is_sorted(mine.begin(), mine.end(),
                                 [](const kmer::AlignTask& x, const kmer::AlignTask& y) {
                                   return std::tie(x.a, x.b) < std::tie(y.a, y.b);
                                 }))
          << "rank " << r << " of " << nranks << " is not in (a, b) order";
    }
  }
}

TEST(Pipeline, SerialDeterministic) {
  const auto& f = fixture();
  const TaskSet a = run_serial(f.dataset.reads, f.config, 3);
  const TaskSet b = run_serial(f.dataset.reads, f.config, 3);
  const auto ua = a.sorted_union();
  const auto ub = b.sorted_union();
  ASSERT_EQ(ua.size(), ub.size());
  for (std::size_t i = 0; i < ua.size(); ++i) EXPECT_TRUE(tasks_equal(ua[i], ub[i]));
}

TEST(Pipeline, RankCountDoesNotChangeTaskSet) {
  const auto& f = fixture();
  const auto u2 = run_serial(f.dataset.reads, f.config, 2).sorted_union();
  const auto u7 = run_serial(f.dataset.reads, f.config, 7).sorted_union();
  ASSERT_EQ(u2.size(), u7.size());
  for (std::size_t i = 0; i < u2.size(); ++i) EXPECT_TRUE(tasks_equal(u2[i], u7[i]));
}

class DistributedEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DistributedEquivalence, MatchesSerialTaskSet) {
  // Both read sets, at k = 17 and k = 32 (a key of all 64 bits), exhaustive
  // and sketched, with the k-mer kernels on 1, 2 and 3 threads per rank:
  // every rank holds exactly run_serial's list.
  const std::size_t nranks = GetParam();
  for (const bool hostile : {false, true}) {
    const seq::ReadStore& store = hostile ? hostile_reads() : fixture().dataset.reads;
    for (const std::uint32_t k : {17u, 32u}) {
      for (const double keep_frac : {1.0, 0.3}) {
        PipelineConfig config = fixture().config;
        config.k = k;
        config.keep_frac = keep_frac;
        if (hostile) {
          config.lo = 2;
          config.hi = 64;
        } else {
          const wl::DatasetSpec spec = wl::tiny_spec();
          const auto band = kmer::reliable_bounds(
              kmer::BellaParams{8, spec.reads.error_rate, k, 1e-3});
          config.lo = band.lo;
          config.hi = band.hi;
        }
        const TaskSet serial = run_serial(store, config, nranks);
        EXPECT_GT(serial.total_tasks(), 0u);
        const auto bounds = compute_bounds(store, nranks);
        for (const std::size_t threads : {1u, 2u, 3u}) {
          config.threads = threads;
          SCOPED_TRACE(std::string(hostile ? "hostile" : "clean") + " reads, k " +
                       std::to_string(k) + ", keep_frac " + std::to_string(keep_frac) +
                       ", threads " + std::to_string(threads));
          TaskSet distributed;
          distributed.bounds = bounds;
          distributed.per_rank.resize(nranks);
          rt::World world(nranks);
          world.run([&](rt::Rank& rank) {
            distributed.per_rank[rank.id()] = run_distributed(rank, store, config, bounds);
          });
          check_owner_invariant(distributed);
          for (std::size_t r = 0; r < nranks; ++r) {
            const auto& want = serial.per_rank[r];
            const auto& got = distributed.per_rank[r];
            ASSERT_EQ(got.size(), want.size()) << "rank " << r;
            for (std::size_t i = 0; i < want.size(); ++i)
              EXPECT_TRUE(tasks_equal(got[i], want[i]))
                  << "rank " << r << " task " << i << ": (" << want[i].a << "," << want[i].b
                  << ") vs (" << got[i].a << "," << got[i].b << ")";
          }
        }
      }
    }
  }
}

TEST(Pipeline, DistributedEntryMatchesSerial) {
  // The entry the CLI uses: stage 1 plus a fault-free World of nranks.
  const auto& f = fixture();
  for (const std::size_t nranks : {1u, 4u}) {
    const TaskSet serial = run_serial(f.dataset.reads, f.config, nranks);
    const TaskSet distributed = run_distributed(f.dataset.reads, f.config, nranks);
    EXPECT_EQ(distributed.bounds, serial.bounds);
    ASSERT_EQ(distributed.per_rank.size(), nranks);
    for (std::size_t r = 0; r < nranks; ++r) {
      ASSERT_EQ(distributed.per_rank[r].size(), serial.per_rank[r].size()) << "rank " << r;
      for (std::size_t i = 0; i < serial.per_rank[r].size(); ++i)
        EXPECT_TRUE(tasks_equal(distributed.per_rank[r][i], serial.per_rank[r][i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, DistributedEquivalence, ::testing::Values(1, 2, 3, 5, 8));

TEST(Pipeline, SketchingPreservesMostTasks) {
  const auto& f = fixture();
  PipelineConfig sketched = f.config;
  sketched.keep_frac = 0.3;
  const auto full = run_serial(f.dataset.reads, f.config, 2).total_tasks();
  const auto with_sketch = run_serial(f.dataset.reads, sketched, 2).total_tasks();
  EXPECT_GT(with_sketch, full / 2);  // overlaps share many k-mers
  EXPECT_LE(with_sketch, full);
}

TEST(Pipeline, EmptyStoreYieldsNoTasks) {
  seq::ReadStore empty;
  PipelineConfig config;
  const TaskSet tasks = run_serial(empty, config, 3);
  EXPECT_EQ(tasks.total_tasks(), 0u);
  EXPECT_EQ(tasks.bounds.back(), 0u);
  EXPECT_EQ(run_distributed(empty, config, 3).total_tasks(), 0u);
}

TEST(Pipeline, SingleReadYieldsNoTasks) {
  seq::ReadStore store;
  store.add("only", seq::Sequence::from_string("ACGTACGTACGTACGTACGTACGTACGT"));
  PipelineConfig config;
  config.k = 15;
  config.lo = 1;
  config.hi = 100;
  EXPECT_EQ(run_serial(store, config, 2).total_tasks(), 0u);
}

TEST(Pipeline, MoreRanksThanReads) {
  const auto& f = fixture();
  // Way more ranks than needed: must not crash, invariant must hold.
  const TaskSet tasks = run_serial(f.dataset.reads, f.config, 64);
  check_owner_invariant(tasks);
  EXPECT_GT(tasks.total_tasks(), 0u);
}

TEST(Pipeline, ZeroRanksIsATypedError) {
  // Stage 1 rejects a rank count below 1 before partitioning, so the CLI
  // exits with a message instead of aborting inside partition_by_size.
  const auto& f = fixture();
  EXPECT_THROW((void)compute_bounds(f.dataset.reads, 0), gnb::Error);
  EXPECT_THROW((void)run_serial(f.dataset.reads, f.config, 0), gnb::Error);
  EXPECT_THROW((void)run_distributed(f.dataset.reads, f.config, 0), gnb::Error);
  EXPECT_THROW(check_nranks(0), gnb::Error);
  EXPECT_NO_THROW(check_nranks(1));
}

TEST(Pipeline, OutOfRangeKIsATypedError) {
  // k must pack into one 64-bit word: every stage-2 entry point rejects a
  // k outside [1, 32] with gnb::Error before doing any work.
  const auto& f = fixture();
  const auto bounds = compute_bounds(f.dataset.reads, 2);
  for (const std::uint32_t k : {0u, 33u, 64u}) {
    PipelineConfig config = f.config;
    config.k = k;
    EXPECT_THROW((void)run_serial(f.dataset.reads, config, 2), gnb::Error) << "k=" << k;
    EXPECT_THROW((void)kmer::discover_tasks(f.dataset.reads, k, 1, 100), gnb::Error)
        << "k=" << k;
    EXPECT_THROW((void)run_distributed(f.dataset.reads, config, 2), gnb::Error) << "k=" << k;
    rt::World world(2);
    world.run([&](rt::Rank& rank) {
      EXPECT_THROW((void)run_distributed(rank, f.dataset.reads, config, bounds), gnb::Error)
          << "k=" << k;
    });
  }
  // The CLI checks the parsed 64-bit value, so 2^32 + 17 cannot wrap to 17.
  EXPECT_THROW(kmer::check_k(4294967313ULL), gnb::Error);
  EXPECT_NO_THROW(kmer::check_k(1));
  EXPECT_NO_THROW(kmer::check_k(32));
}
