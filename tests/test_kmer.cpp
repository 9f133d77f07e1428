// Unit and property tests for gnb_kmer: packed k-mers, extraction,
// counting, the BELLA reliable-band filter, candidate generation and the
// stage-2/3 record kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <tuple>

#include "kmer/bella_filter.hpp"
#include "kmer/candidates.hpp"
#include "kmer/counter.hpp"
#include "kmer/extract.hpp"
#include "kmer/kmer.hpp"
#include "kmer/records.hpp"
#include "util/rng.hpp"

using namespace gnb;
using namespace gnb::kmer;

namespace {

seq::Read make_read(seq::ReadId id, const std::string& bases) {
  return seq::Read{id, "r" + std::to_string(id), seq::Sequence::from_string(bases)};
}

Kmer kmer_of(const std::string& bases) {
  Kmer km(0, static_cast<std::uint32_t>(bases.size()));
  for (char ch : bases) km = km.rolled(seq::dna_encode(ch));
  return km;
}

/// Every canonical k-mer for_each_kmer emits for `read`, in order.
std::vector<Kmer> extract_kmers(const seq::Read& read, std::uint32_t k) {
  std::vector<Kmer> out;
  for_each_kmer(read, k, [&](const Kmer& km, const Occurrence&) { out.push_back(km); });
  return out;
}

/// The (bits, multiplicity) table of a counter.
std::map<std::uint64_t, std::uint64_t> table_of(const KmerCounter& counter) {
  std::map<std::uint64_t, std::uint64_t> table;
  for (const auto& [km, n] : counter.counts()) table.emplace(km.bits(), n);
  return table;
}

std::string random_dna(std::size_t length, Xoshiro256& rng) {
  std::string s(length, 'A');
  for (auto& ch : s) ch = seq::dna_decode(static_cast<std::uint8_t>(rng.below(4)));
  return s;
}

}  // namespace

// ---------- Kmer ----------

TEST(Kmer, ToStringRoundTrip) {
  EXPECT_EQ(kmer_of("ACGTT").to_string(), "ACGTT");
  EXPECT_EQ(kmer_of("GGGG").to_string(), "GGGG");
}

TEST(Kmer, RolledSlidesWindow) {
  Kmer km = kmer_of("ACG");
  km = km.rolled(seq::dna_encode('T'));
  EXPECT_EQ(km.to_string(), "CGT");
}

TEST(Kmer, ReverseComplementKnown) {
  EXPECT_EQ(kmer_of("ACGT").reverse_complement().to_string(), "ACGT");  // palindrome
  EXPECT_EQ(kmer_of("AAACC").reverse_complement().to_string(), "GGTTT");
}

class KmerProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KmerProperty, ReverseComplementIsInvolution) {
  Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const Kmer km(rng() & ((GetParam() == 32) ? ~0ULL : ((1ULL << (2 * GetParam())) - 1)),
                  GetParam());
    EXPECT_EQ(km.reverse_complement().reverse_complement(), km);
  }
}

TEST_P(KmerProperty, CanonicalIsMinOfStrands) {
  Xoshiro256 rng(GetParam() + 100);
  for (int trial = 0; trial < 50; ++trial) {
    const Kmer km(rng() & ((GetParam() == 32) ? ~0ULL : ((1ULL << (2 * GetParam())) - 1)),
                  GetParam());
    bool reversed = false;
    const Kmer canon = km.canonical(&reversed);
    EXPECT_LE(canon.bits(), km.bits());
    EXPECT_LE(canon.bits(), km.reverse_complement().bits());
    EXPECT_EQ(canon, reversed ? km.reverse_complement() : km);
    // Canonical of the reverse complement is the same k-mer.
    EXPECT_EQ(km.reverse_complement().canonical(), canon);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KmerProperty, ::testing::Values(1u, 2u, 15u, 16u, 17u, 31u, 32u));

TEST(Kmer, InvalidKAborts) { EXPECT_DEATH(Kmer(0, 33), ""); }

// ---------- extraction ----------

TEST(Extract, CountsWindows) {
  const auto read = make_read(0, "ACGTACGTAC");  // 10 bases, k=4 -> 7 windows
  EXPECT_EQ(extract_kmers(read, 4).size(), 7u);
}

TEST(Extract, SkipsWindowsContainingN) {
  const auto read = make_read(0, "ACGTNACGT");  // N kills windows covering position 4
  const auto kmers = extract_kmers(read, 4);
  // Valid windows: positions 0 ("ACGT") and 5 ("ACGT") only.
  EXPECT_EQ(kmers.size(), 2u);
}

TEST(Extract, ShortReadYieldsNothing) {
  const auto read = make_read(0, "ACG");
  EXPECT_TRUE(extract_kmers(read, 4).empty());
}

TEST(Extract, EmitsCanonicalForm) {
  // "AAACC" forward; reverse complement read must emit identical k-mers.
  const auto fwd = make_read(0, "AAACCGGT");
  const auto rc_read =
      make_read(1, seq::Sequence::from_string("AAACCGGT").reverse_complement().to_string());
  auto k1 = extract_kmers(fwd, 5);
  auto k2 = extract_kmers(rc_read, 5);
  auto key = [](const Kmer& km) { return km.bits(); };
  std::multiset<std::uint64_t> s1, s2;
  for (const auto& km : k1) s1.insert(key(km));
  for (const auto& km : k2) s2.insert(key(km));
  EXPECT_EQ(s1, s2);
}

TEST(Extract, OccurrencePositionsAreWindowStarts) {
  const auto read = make_read(3, "ACGTAC");
  std::vector<std::uint32_t> positions;
  for_each_kmer(read, 3, [&](const Kmer&, const Occurrence& occ) {
    EXPECT_EQ(occ.read, 3u);
    positions.push_back(occ.pos);
  });
  EXPECT_EQ(positions, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

// ---------- counting ----------

TEST(Counter, CountsAcrossReads) {
  KmerCounter counter;
  counter.count_reads({make_read(0, "AAAAA"), make_read(1, "AAAAA")}, 5);
  // "AAAAA" canonical appears once per read.
  EXPECT_EQ(counter.distinct(), 1u);
  EXPECT_EQ(table_of(counter),
            (std::map<std::uint64_t, std::uint64_t>{{kmer_of("AAAAA").canonical().bits(), 2}}));
}

TEST(Counter, RetainedRespectsBand) {
  // Multiplicities 1, 3 and 10 ("GGGGG" counts as its canonical "CCCCC").
  std::vector<seq::Read> reads{make_read(0, "AAAAA")};
  for (seq::ReadId id = 1; id <= 3; ++id) reads.push_back(make_read(id, "ACGTA"));
  for (seq::ReadId id = 4; id <= 13; ++id) reads.push_back(make_read(id, "GGGGG"));
  KmerCounter counter;
  counter.count_reads(reads, 5);
  const auto keep = counter.retained(2, 8);
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep[0], kmer_of("ACGTA"));
}

// ---------- BELLA filter ----------

TEST(Bella, BinomialPmfSumsToOne) {
  for (const double p : {0.1, 0.5, 0.9}) {
    double sum = 0;
    for (std::uint64_t m = 0; m <= 30; ++m) sum += binomial_pmf(30, p, m);
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(Bella, PmfEdgeCases) {
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 0.0, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 1.0, 10), 1.0);
  EXPECT_DOUBLE_EQ(binomial_pmf(10, 0.5, 11), 0.0);
}

TEST(Bella, UpperTailMonotoneDecreasing) {
  double prev = 1.0;
  for (std::uint64_t m = 0; m <= 20; ++m) {
    const double tail = binomial_upper_tail(20, 0.3, m);
    EXPECT_LE(tail, prev + 1e-12);
    prev = tail;
  }
}

TEST(Bella, BoundsScaleWithCoverage) {
  const auto low = reliable_bounds(BellaParams{20, 0.15, 17, 1e-3});
  const auto high = reliable_bounds(BellaParams{100, 0.15, 17, 1e-3});
  EXPECT_EQ(low.lo, 2u);
  EXPECT_EQ(high.lo, 2u);
  EXPECT_GT(high.hi, low.hi);  // deeper coverage keeps higher multiplicities
}

TEST(Bella, HigherErrorLowersUpperBound) {
  const auto clean = reliable_bounds(BellaParams{30, 0.05, 17, 1e-3});
  const auto noisy = reliable_bounds(BellaParams{30, 0.30, 17, 1e-3});
  EXPECT_GE(clean.hi, noisy.hi);
  EXPECT_GT(clean.p_correct, noisy.p_correct);
}

TEST(Bella, BoundsAreOrdered) {
  for (double cov : {10.0, 30.0, 100.0})
    for (double err : {0.02, 0.15, 0.30}) {
      const auto b = reliable_bounds(BellaParams{cov, err, 17, 1e-3});
      EXPECT_LE(b.lo, b.hi);
      EXPECT_GE(b.lo, 2u);
    }
}

TEST(Bella, InvalidParametersAreTypedErrors) {
  // Degenerate --coverage / --error values reach reliable_bounds straight
  // from the CLI: they must raise gnb::Error, not abort.
  for (const double cov : {0.0, -5.0})
    EXPECT_THROW((void)reliable_bounds(BellaParams{cov, 0.15, 17, 1e-3}), gnb::Error)
        << "coverage " << cov;
  for (const double err : {1.5, -1.0, 1.0})
    EXPECT_THROW((void)reliable_bounds(BellaParams{30, err, 17, 1e-3}), gnb::Error)
        << "error " << err;
  EXPECT_NO_THROW((void)reliable_bounds(BellaParams{30, 0.0, 17, 1e-3}));
}

// ---------- candidates ----------

TEST(Candidates, OverlappingReadsProduceOneTask) {
  // Two reads sharing a 30-base block; all shared k-mers must collapse to
  // one task per pair.
  Xoshiro256 rng(9);
  const std::string shared = random_dna(30, rng);
  const std::string a = random_dna(20, rng) + shared;
  const std::string b = shared + random_dna(25, rng);
  seq::ReadStore store;
  store.add("a", seq::Sequence::from_string(a));
  store.add("b", seq::Sequence::from_string(b));
  const auto tasks = discover_tasks(store, 15, 1, 100);
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].a, 0u);
  EXPECT_EQ(tasks[0].b, 1u);
  EXPECT_EQ(tasks[0].seed.length, 15u);
}

TEST(Candidates, SeedActuallyMatchesForwardCase) {
  Xoshiro256 rng(10);
  const std::string shared = random_dna(40, rng);
  const std::string a = random_dna(33, rng) + shared + random_dna(10, rng);
  const std::string b = random_dna(7, rng) + shared;
  seq::ReadStore store;
  store.add("a", seq::Sequence::from_string(a));
  store.add("b", seq::Sequence::from_string(b));
  const auto tasks = discover_tasks(store, 13, 1, 100);
  ASSERT_FALSE(tasks.empty());
  for (const auto& task : tasks) {
    const auto ca = store.get(task.a).sequence.unpack();
    auto cb = store.get(task.b).sequence.unpack();
    if (task.seed.b_reversed) {
      std::reverse(cb.begin(), cb.end());
      for (auto& code : cb) code = seq::dna_complement(code);
    }
    for (std::uint16_t i = 0; i < task.seed.length; ++i)
      EXPECT_EQ(ca[task.seed.a_pos + i], cb[task.seed.b_pos + i])
          << "seed mismatch at offset " << i;
  }
}

TEST(Candidates, SeedMatchesReverseComplementCase) {
  Xoshiro256 rng(11);
  const std::string shared = random_dna(40, rng);
  const std::string a = random_dna(12, rng) + shared + random_dna(9, rng);
  // b carries the reverse complement of the shared block.
  const std::string rc =
      seq::Sequence::from_string(shared).reverse_complement().to_string();
  const std::string b = random_dna(21, rng) + rc + random_dna(5, rng);
  seq::ReadStore store;
  store.add("a", seq::Sequence::from_string(a));
  store.add("b", seq::Sequence::from_string(b));
  const auto tasks = discover_tasks(store, 13, 1, 100);
  ASSERT_FALSE(tasks.empty());
  bool found_reversed = false;
  for (const auto& task : tasks) {
    if (!task.seed.b_reversed) continue;
    found_reversed = true;
    const auto ca = store.get(task.a).sequence.unpack();
    auto cb = store.get(task.b).sequence.unpack();
    std::reverse(cb.begin(), cb.end());
    for (auto& code : cb) code = seq::dna_complement(code);
    for (std::uint16_t i = 0; i < task.seed.length; ++i)
      EXPECT_EQ(ca[task.seed.a_pos + i], cb[task.seed.b_pos + i]);
  }
  EXPECT_TRUE(found_reversed);
}

TEST(Candidates, TaskInvariantALessThanB) {
  Xoshiro256 rng(12);
  seq::ReadStore store;
  const std::string shared = random_dna(60, rng);
  for (int i = 0; i < 6; ++i)
    store.add("r", seq::Sequence::from_string(random_dna(10 + 3 * i, rng) + shared));
  for (const auto& task : discover_tasks(store, 15, 1, 100)) EXPECT_LT(task.a, task.b);
}

TEST(Candidates, SelfPairsExcluded) {
  // A read with an internal repeat shares k-mers with itself; no self task.
  Xoshiro256 rng(13);
  const std::string repeat = random_dna(30, rng);
  seq::ReadStore store;
  store.add("r", seq::Sequence::from_string(repeat + random_dna(15, rng) + repeat));
  EXPECT_TRUE(discover_tasks(store, 13, 1, 100).empty());
}

TEST(Candidates, FrequencyFilterRemovesRepeatKmers) {
  Xoshiro256 rng(14);
  const std::string repeat = random_dna(25, rng);
  seq::ReadStore store;
  // 12 reads all containing the same repeat: its k-mers have multiplicity
  // 12 > hi 8 and must be filtered out. Without the filter every one of
  // the C(12,2) = 66 pairs becomes a candidate; with it, only incidental
  // junction k-mers (random prefix boundary + repeat start, multiplicity
  // within the band) survive.
  for (int i = 0; i < 12; ++i)
    store.add("r", seq::Sequence::from_string(random_dna(40 + i, rng) + repeat));
  const auto unfiltered = discover_tasks(store, 15, 1, 1000);
  EXPECT_EQ(unfiltered.size(), 66u);
  const auto filtered = discover_tasks(store, 15, 2, 8);
  EXPECT_LT(filtered.size(), unfiltered.size() / 2);
}

TEST(Candidates, KeepFracSketchingReducesPostingWork) {
  Xoshiro256 rng(15);
  const std::string shared = random_dna(200, rng);
  seq::ReadStore store;
  for (int i = 0; i < 4; ++i)
    store.add("r", seq::Sequence::from_string(random_dna(20 + 7 * i, rng) + shared));
  // With 200 shared bases there are ~186 shared 15-mers: even keeping 20%
  // of k-mers, every overlapping pair is still found.
  const auto full = discover_tasks(store, 15, 1, 100, 1.0);
  const auto sketched = discover_tasks(store, 15, 1, 100, 0.2);
  EXPECT_EQ(full.size(), sketched.size());
}

TEST(Candidates, DeterministicSeedChoice) {
  Xoshiro256 rng(16);
  const std::string shared = random_dna(80, rng);
  seq::ReadStore store;
  store.add("a", seq::Sequence::from_string(shared + random_dna(30, rng)));
  store.add("b", seq::Sequence::from_string(random_dna(11, rng) + shared));
  const auto t1 = discover_tasks(store, 13, 1, 100);
  const auto t2 = discover_tasks(store, 13, 1, 100);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].seed.a_pos, t2[i].seed.a_pos);
    EXPECT_EQ(t1[i].seed.b_pos, t2[i].seed.b_pos);
    EXPECT_EQ(t1[i].seed.b_reversed, t2[i].seed.b_reversed);
  }
}

TEST(Candidates, DisjointReadsShareNothing) {
  // Distinct random reads of this size essentially never share a 15-mer.
  Xoshiro256 rng(17);
  seq::ReadStore store;
  for (int i = 0; i < 5; ++i) store.add("r", seq::Sequence::from_string(random_dna(400, rng)));
  EXPECT_TRUE(discover_tasks(store, 15, 1, 100).empty());
}

namespace {

AlignTask task_of(seq::ReadId a, seq::ReadId b, std::uint32_t a_pos, std::uint32_t b_pos,
                  bool reversed, std::uint16_t length = 17) {
  return AlignTask{a, b, align::Seed{a_pos, b_pos, length, reversed}};
}

void expect_same_tasks(const std::vector<AlignTask>& got, const std::vector<AlignTask>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << "task " << i;
    EXPECT_EQ(got[i].b, want[i].b) << "task " << i;
    EXPECT_EQ(got[i].seed.a_pos, want[i].seed.a_pos) << "task " << i;
    EXPECT_EQ(got[i].seed.b_pos, want[i].seed.b_pos) << "task " << i;
    EXPECT_EQ(got[i].seed.length, want[i].seed.length) << "task " << i;
    EXPECT_EQ(got[i].seed.b_reversed, want[i].seed.b_reversed) << "task " << i;
  }
}

}  // namespace

TEST(TaskTable, MergedHalvesEqualOneTable) {
  // Offers split across two tables, merged either way round, keep the
  // same seed_less-minimum per pair as one table offered everything.
  Xoshiro256 rng(41);
  std::vector<AlignTask> offers;
  for (int i = 0; i < 3'000; ++i) {
    const auto a = static_cast<seq::ReadId>(rng.below(40));
    const auto b = static_cast<seq::ReadId>(a + 1 + rng.below(40));
    offers.push_back(task_of(a, b, static_cast<std::uint32_t>(rng.below(50)),
                             static_cast<std::uint32_t>(rng.below(50)), rng.below(2) == 1));
  }
  TaskTable whole;
  for (const AlignTask& task : offers) whole.offer(task);
  const std::vector<AlignTask> want = whole.take_sorted();
  EXPECT_GT(want.size(), 400u);
  for (const bool left_first : {true, false}) {
    TaskTable left, right;
    for (std::size_t i = 0; i < offers.size(); ++i) (i % 3 == 0 ? left : right).offer(offers[i]);
    TaskTable& into = left_first ? left : right;
    into.merge(left_first ? right : left);
    SCOPED_TRACE(left_first ? "right into left" : "left into right");
    expect_same_tasks(into.take_sorted(), want);
  }
}

TEST(TaskTable, SeedsAtThePositionBoundPackExactly) {
  // A read of kMaxRecordReadLength bases has window starts up to 2^31 - k;
  // a bucket holds them exactly, and the minimum per pair is seed_less's.
  constexpr std::uint32_t k = 17;
  constexpr auto last = static_cast<std::uint32_t>(kMaxRecordReadLength - k);
  TaskTable table;
  table.offer(task_of(1, 2, last, last, true, k));
  table.offer(task_of(1, 2, last, last, false, k));
  table.offer(task_of(3, 4, last, last - 1, true, k));
  table.offer(task_of(3, 4, last, last, false, k));
  table.offer(task_of(5, 6, 0xFFFFFFFFu, last, true, k));
  table.offer(task_of(0xFFFFFFFEu, 0xFFFFFFFFu, last - 1, 0, true, k));
  expect_same_tasks(table.take_sorted(), {task_of(1, 2, last, last, false, k),
                                          task_of(3, 4, last, last - 1, true, k),
                                          task_of(5, 6, 0xFFFFFFFFu, last, true, k),
                                          task_of(0xFFFFFFFEu, 0xFFFFFFFFu, last - 1, 0, true, k)});

  // The join translates a reverse-strand window at the very start of a
  // read of the longest length to b_pos = 2^31 - k.
  const std::vector<std::size_t> lengths = {100, kMaxRecordReadLength};
  const std::vector<Occurrence> occs = {{0, 5, false}, {1, 0, true}};
  table.join(occs, k, lengths);
  expect_same_tasks(table.take_sorted(), {task_of(0, 1, 5, last, true, k)});
}

TEST(TaskTable, RefusesSeedsItCannotPack) {
  // Positions of a read longer than kMaxRecordReadLength would not fit a
  // bucket; discover_tasks and run_serial reject such reads up front with
  // check_record_length, and the table itself refuses them.
  TaskTable table;
  const std::vector<std::size_t> lengths = {100, kMaxRecordReadLength + 1};
  const std::vector<Occurrence> occs = {{0, 5, false}, {1, 0, true}};
  EXPECT_DEATH(table.join(occs, 17, lengths), "");
  EXPECT_DEATH(table.offer(task_of(0, 1, 0, static_cast<std::uint32_t>(kMaxRecordReadLength),
                                   false)),
               "");
}

// ---------- oracle: counter and task set against a std::map brute force ----------

namespace {

// No padding bytes: gtest appends a byte dump of the parameter to each test
// name, so padding would put uninitialized memory into the names.
struct OracleCase {
  std::uint64_t k;
  std::uint64_t lo, hi;  // retained multiplicity band
  std::size_t reads;
  std::size_t max_length;
};

/// Reads over a random genome carrying a repeat: overlapping substrings from
/// both strands, some with N runs, plus reads shorter than k.
seq::ReadStore oracle_reads(const OracleCase& c, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::string genome = random_dna(4 * c.max_length, rng);
  const std::string repeat = random_dna(std::min<std::size_t>(60, c.max_length / 2), rng);
  for (int copy = 0; copy < 5; ++copy)
    genome.replace(rng.below(genome.size() - repeat.size()), repeat.size(), repeat);

  seq::ReadStore store;
  for (std::size_t i = 0; i < c.reads; ++i) {
    const std::size_t length = i % 7 == 3 ? c.k - 1 : c.k + rng.below(c.max_length - c.k);
    std::string read = genome.substr(rng.below(genome.size() - length), length);
    if (rng.below(2) == 1)
      read = seq::Sequence::from_string(read).reverse_complement().to_string();
    if (length > 8 && rng.below(3) == 0) {
      const std::size_t run = 1 + rng.below(4);
      read.replace(rng.below(length - run), run, std::string(run, 'N'));
    }
    store.add(std::to_string(i), seq::Sequence::from_string(read));
  }
  return store;
}

/// Every N-free window, canonicalized by Kmer::canonical on a k-mer built
/// from the window's characters — not by for_each_kmer's rolling update.
struct OracleWindow {
  std::uint64_t bits;
  Occurrence occ;
};

std::vector<OracleWindow> oracle_windows(const seq::ReadStore& store, std::uint32_t k) {
  std::vector<OracleWindow> out;
  for (const seq::Read& read : store.reads()) {
    const std::string bases = read.sequence.to_string();
    for (std::size_t pos = 0; pos + k <= bases.size(); ++pos) {
      const std::string window = bases.substr(pos, k);
      if (window.find('N') != std::string::npos) continue;
      Occurrence occ{read.id, static_cast<std::uint32_t>(pos), false};
      const Kmer canon = kmer_of(window).canonical(&occ.reversed);
      out.push_back({canon.bits(), occ});
    }
  }
  return out;
}

std::map<std::uint64_t, std::uint64_t> oracle_counts(const std::vector<OracleWindow>& windows) {
  std::map<std::uint64_t, std::uint64_t> counts;
  for (const OracleWindow& w : windows) ++counts[w.bits];
  return counts;
}

void expect_counter_matches(const KmerCounter& counter,
                            const std::map<std::uint64_t, std::uint64_t>& oracle) {
  ASSERT_EQ(counter.distinct(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [km, n] : counter.counts()) {
    EXPECT_EQ(km.bits(), it->first);
    EXPECT_EQ(n, it->second);
    ++it;
  }
}

class Oracle : public ::testing::TestWithParam<std::tuple<OracleCase, double>> {};

std::string oracle_case_name(const ::testing::TestParamInfo<Oracle::ParamType>& case_info) {
  const auto& [c, keep_frac] = case_info.param;
  return std::to_string(c.k) + (keep_frac >= 1.0 ? "mer_full" : "mer_sketched");
}

}  // namespace

TEST_P(Oracle, CounterMatchesMapCount) {
  const OracleCase c = std::get<0>(GetParam());
  const seq::ReadStore store = oracle_reads(c, 31 + c.k);
  const std::vector<OracleWindow> windows = oracle_windows(store, c.k);
  const auto oracle = oracle_counts(windows);

  // The rolling extraction emits exactly the sliced windows, in order.
  std::size_t next = 0;
  for (const seq::Read& read : store.reads()) {
    for_each_kmer(read, c.k, [&](const Kmer& km, const Occurrence& occ) {
      ASSERT_LT(next, windows.size());
      EXPECT_EQ(km.bits(), windows[next].bits);
      EXPECT_EQ(occ.read, windows[next].occ.read);
      EXPECT_EQ(occ.pos, windows[next].occ.pos);
      EXPECT_EQ(occ.reversed, windows[next].occ.reversed);
      ++next;
    });
  }
  EXPECT_EQ(next, windows.size());

  KmerCounter counter;
  counter.count_reads(store.reads(), c.k);
  expect_counter_matches(counter, oracle);

  std::vector<Kmer> band;
  for (const auto& [bits, n] : oracle)
    if (n >= c.lo && n <= c.hi) band.emplace_back(bits, c.k);
  EXPECT_EQ(counter.retained(c.lo, c.hi), band);
}

TEST_P(Oracle, TaskSetMatchesBruteForceJoin) {
  const auto& [c, keep_frac] = GetParam();
  const seq::ReadStore store = oracle_reads(c, 31 + c.k);
  const std::vector<OracleWindow> windows = oracle_windows(store, c.k);
  const auto counts = oracle_counts(windows);
  const std::uint64_t keep = keep_frac >= 1.0 ? ~std::uint64_t{0}
                                              : static_cast<std::uint64_t>(
                                                    keep_frac * 18446744073709551615.0);

  std::map<std::uint64_t, std::vector<Occurrence>> lists;
  for (const OracleWindow& w : windows) {
    const std::uint64_t n = counts.at(w.bits);
    if (n >= c.lo && n <= c.hi && mix64(w.bits) <= keep) lists[w.bits].push_back(w.occ);
  }
  // Per read pair, the seed_less minimum over every shared retained window.
  std::map<std::pair<seq::ReadId, seq::ReadId>, align::Seed> best;
  for (const auto& [bits, occs] : lists) {
    for (const Occurrence& x : occs) {
      for (const Occurrence& y : occs) {
        if (x.read >= y.read) continue;
        align::Seed seed;
        seed.length = static_cast<std::uint16_t>(c.k);
        seed.a_pos = x.pos;
        seed.b_reversed = x.reversed != y.reversed;
        seed.b_pos = seed.b_reversed
                         ? static_cast<std::uint32_t>(store.get(y.read).length()) - c.k - y.pos
                         : y.pos;
        const auto [it, inserted] = best.emplace(std::pair{x.read, y.read}, seed);
        if (!inserted && seed_less(seed, it->second)) it->second = seed;
      }
    }
  }

  const std::vector<AlignTask> tasks = discover_tasks(store, c.k, c.lo, c.hi, keep_frac);
  ASSERT_EQ(tasks.size(), best.size());
  auto it = best.begin();
  for (const AlignTask& task : tasks) {
    EXPECT_EQ(task.a, it->first.first);
    EXPECT_EQ(task.b, it->first.second);
    EXPECT_EQ(task.seed.a_pos, it->second.a_pos);
    EXPECT_EQ(task.seed.b_pos, it->second.b_pos);
    EXPECT_EQ(task.seed.length, it->second.length);
    EXPECT_EQ(task.seed.b_reversed, it->second.b_reversed);
    // The seed is a real shared window.
    std::string a = store.get(task.a).sequence.to_string();
    std::string b = store.get(task.b).sequence.to_string();
    if (task.seed.b_reversed)
      b = seq::Sequence::from_string(b).reverse_complement().to_string();
    EXPECT_EQ(a.substr(task.seed.a_pos, c.k), b.substr(task.seed.b_pos, c.k));
    ++it;
  }
  EXPECT_GT(tasks.size(), 0u);
}

TEST_P(Oracle, RecordKernelMatchesSerialJoin) {
  // Senders pack contiguous slices of the reads, every shard joins what it
  // received, and a pair table merges the shards: the tasks equal the
  // serial index's at any shard count, with one part per shard or many.
  const auto& [c, keep_frac] = GetParam();
  const seq::ReadStore store = oracle_reads(c, 31 + c.k);
  const std::vector<AlignTask> serial = discover_tasks(store, c.k, c.lo, c.hi, keep_frac);
  std::vector<std::size_t> lengths;
  for (const seq::Read& read : store.reads()) lengths.push_back(read.length());
  const std::span<const seq::Read> reads(store.reads());
  for (const std::size_t shards : {1u, 2u, 3u, 5u}) {
    const std::uint64_t seven_parts = 7 * shards * RecordRouting::kPartRecords;
    for (const auto& [records, threads] : {std::pair{std::uint64_t{0}, std::size_t{1}},
                                           std::pair{seven_parts, std::size_t{1}},
                                           std::pair{seven_parts, std::size_t{3}}}) {
      const RecordRouting routing(shards, records);
      std::vector<std::vector<std::vector<std::uint8_t>>> inbox(shards);
      for (std::size_t sender = 0; sender < shards; ++sender) {
        const std::size_t begin = reads.size() * sender / shards;
        const std::size_t end = reads.size() * (sender + 1) / shards;
        auto buffers = pack_records(reads.subspan(begin, end - begin), c.k, Sketch(keep_frac),
                                    routing, threads);
        for (std::size_t shard = 0; shard < shards; ++shard)
          inbox[shard].push_back(std::move(buffers[shard]));
      }
      TaskTable merged;
      for (std::size_t shard = 0; shard < shards; ++shard) {
        TaskTable table;
        join_records(inbox[shard], routing, c.k, c.lo, c.hi, lengths, table, threads);
        merged.merge(table);
      }
      const std::vector<AlignTask> tasks = merged.take_sorted();
      SCOPED_TRACE("shards " + std::to_string(shards) + ", parts " +
                   std::to_string(routing.parts()) + ", threads " + std::to_string(threads));
      ASSERT_EQ(tasks.size(), serial.size());
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(tasks[i].a, serial[i].a);
        EXPECT_EQ(tasks[i].b, serial[i].b);
        EXPECT_EQ(tasks[i].seed.a_pos, serial[i].seed.a_pos);
        EXPECT_EQ(tasks[i].seed.b_pos, serial[i].seed.b_pos);
        EXPECT_EQ(tasks[i].seed.length, serial[i].seed.length);
        EXPECT_EQ(tasks[i].seed.b_reversed, serial[i].seed.b_reversed);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KAndSketch, Oracle,
    ::testing::Combine(::testing::Values(OracleCase{1, 1, 1000, 12, 40},
                                         OracleCase{13, 2, 8, 48, 300},
                                         OracleCase{17, 2, 8, 48, 300},
                                         OracleCase{32, 2, 8, 48, 300}),
                       ::testing::Values(1.0, 0.3)),
    oracle_case_name);

// ---------- the stage-2/3 record kernel ----------

TEST(Records, RoutingSlotsSpanEveryShardAndPart) {
  // The part count follows the record count; every hash lands in a slot,
  // and the extreme low words reach the first and the last.
  EXPECT_EQ(RecordRouting(4, 0).parts(), 1u);
  EXPECT_EQ(RecordRouting(4, 4 * RecordRouting::kPartRecords).parts(), 1u);
  EXPECT_EQ(RecordRouting(4, 4 * RecordRouting::kPartRecords + 4).parts(), 2u);
  const RecordRouting routing(3, 30 * RecordRouting::kPartRecords);
  ASSERT_EQ(routing.parts(), 10u);
  EXPECT_EQ(routing.slot(0), 0u);
  EXPECT_EQ(routing.slot(0xFFFFFFFF00000000ULL), 0u);
  EXPECT_EQ(routing.slot(0xFFFFFFFFULL), 29u);
  std::vector<std::size_t> hits(30, 0);
  for (std::uint64_t x = 0; x < 30'000; ++x) ++hits.at(routing.slot(mix64(x)));
  for (const std::size_t n : hits) EXPECT_GT(n, 800u);
}

TEST(Records, SketchedRoutingStaysBalanced) {
  // Sketching keeps the hashes below a threshold; the routing reads the
  // low word, so every shard still gets its share of the kept k-mers.
  const Sketch sketch(0.3);
  const RecordRouting routing(4, 0);
  std::vector<std::size_t> hits(4, 0);
  std::size_t kept = 0;
  for (std::uint64_t x = 0; x < 40'000; ++x) {
    if (!sketch.keeps(x)) continue;
    ++kept;
    ++hits[routing.slot(mix64(x))];
  }
  for (const std::size_t n : hits) EXPECT_NEAR(static_cast<double>(n), kept / 4.0, kept * 0.05);
}

TEST(Records, PackedBuffersDoNotDependOnThreads) {
  // Three threads pack contiguous chunks into the same cursors one thread
  // would use: every shard buffer is byte-identical, at one part per shard
  // and at many, exhaustive and sketched.
  const OracleCase c{17, 2, 8, 60, 300};
  const seq::ReadStore store = oracle_reads(c, 77);
  const std::span<const seq::Read> reads(store.reads());
  for (const double keep_frac : {1.0, 0.3}) {
    for (const std::uint64_t records : {std::uint64_t{0}, 9 * 3 * RecordRouting::kPartRecords}) {
      const RecordRouting routing(3, records);
      SCOPED_TRACE("parts " + std::to_string(routing.parts()) + ", keep_frac " +
                   std::to_string(keep_frac));
      const auto one = pack_records(reads, c.k, Sketch(keep_frac), routing, 1);
      const auto three = pack_records(reads, c.k, Sketch(keep_frac), routing, 3);
      EXPECT_EQ(three, one);
      std::size_t bytes = 0;
      for (const auto& buffer : one) bytes += buffer.size();
      EXPECT_GT(bytes, 3 * routing.parts() * sizeof(std::uint64_t));
    }
  }
  // More threads than reads, and no reads at all.
  const RecordRouting routing(2, 0);
  EXPECT_EQ(pack_records(reads.first(2), 17, Sketch(1.0), routing, 3),
            pack_records(reads.first(2), 17, Sketch(1.0), routing, 1));
  EXPECT_EQ(pack_records({}, 17, Sketch(1.0), routing, 3),
            pack_records({}, 17, Sketch(1.0), routing, 1));
}

TEST(Records, OverlongReadIsATypedError) {
  // The record's position field holds window starts below 2^31.
  EXPECT_NO_THROW(check_record_length(kMaxRecordReadLength, "long"));
  EXPECT_THROW(check_record_length(kMaxRecordReadLength + 1, "too-long"), gnb::Error);
  EXPECT_THROW(check_record_length(std::uint64_t{1} << 40, "far-too-long"), gnb::Error);
}
