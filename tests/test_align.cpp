// Unit and property tests for gnb_align: the X-drop kernel against exact
// DP oracles, scoring invariants, banded alignment and overlap
// classification.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "align/banded.hpp"
#include "align/batch.hpp"
#include "align/xdrop_batch.hpp"
#include "align/exact.hpp"
#include "align/overlap.hpp"
#include "align/paf.hpp"
#include "align/xdrop.hpp"
#include "seq/read_store.hpp"
#include "seq/sequence.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace gnb;
using namespace gnb::align;

namespace {

using Codes = std::vector<std::uint8_t>;

Codes random_codes(std::size_t length, Xoshiro256& rng) {
  Codes c(length);
  for (auto& x : c) x = static_cast<std::uint8_t>(rng.below(4));
  return c;
}

/// Mutate with substitutions/indels at `rate`.
Codes mutate(const Codes& src, double rate, Xoshiro256& rng) {
  Codes out;
  out.reserve(src.size());
  for (const auto base : src) {
    const double roll = rng.uniform();
    if (roll < rate / 3) continue;
    if (roll < 2 * rate / 3) out.push_back(static_cast<std::uint8_t>(rng.below(4)));
    if (roll < rate) {
      out.push_back(static_cast<std::uint8_t>((base + 1 + rng.below(3)) & 3));
    } else {
      out.push_back(base);
    }
  }
  return out;
}

/// Find a short exact anchor between a and b by scanning.
std::optional<Seed> find_anchor(const Codes& a, const Codes& b, std::uint16_t k) {
  for (std::uint32_t pa = 0; pa + k <= a.size(); ++pa) {
    for (std::uint32_t pb = 0; pb + k <= b.size(); ++pb) {
      if (std::equal(a.begin() + pa, a.begin() + pa + k, b.begin() + pb))
        return Seed{pa, pb, k, false};
    }
  }
  return std::nullopt;
}

}  // namespace

// ---------- xdrop_extend ----------

TEST(XdropExtend, EmptyInputsScoreZero) {
  const Codes a{0, 1, 2};
  const Codes empty;
  XDropParams params;
  EXPECT_EQ(xdrop_extend(a, empty, params).score, 0);
  EXPECT_EQ(xdrop_extend(empty, a, params).score, 0);
}

TEST(XdropExtend, PerfectMatchScoresFullLength) {
  Xoshiro256 rng(1);
  const Codes a = random_codes(200, rng);
  XDropParams params;
  const Extension ext = xdrop_extend(a, a, params);
  EXPECT_EQ(ext.score, 200);
  EXPECT_EQ(ext.a_len, 200u);
  EXPECT_EQ(ext.b_len, 200u);
}

TEST(XdropExtend, UnrelatedSequencesTerminateEarly) {
  Xoshiro256 rng(2);
  const Codes a = random_codes(3000, rng);
  const Codes b = random_codes(3000, rng);
  XDropParams params;
  const Extension ext = xdrop_extend(a, b, params);
  // Full DP would be 9M cells; the X-drop band must collapse long before
  // that (occasional lucky stretches extend the band's life, so this is a
  // ratio bound, not a tiny constant).
  EXPECT_LT(ext.cells, 9'000'000u / 8);
}

TEST(XdropExtend, ScratchIsCleanAcrossCalls) {
  // Regression guard for the thread-local scratch reuse: the same result
  // must come out whether or not a different extension ran before.
  Xoshiro256 rng(3);
  const Codes a = random_codes(500, rng);
  const Codes b = mutate(a, 0.1, rng);
  XDropParams params;
  const Extension fresh = xdrop_extend(a, b, params);
  const Codes junk1 = random_codes(800, rng);
  const Codes junk2 = random_codes(900, rng);
  (void)xdrop_extend(junk1, junk2, params);
  const Extension again = xdrop_extend(a, b, params);
  EXPECT_EQ(fresh.score, again.score);
  EXPECT_EQ(fresh.a_len, again.a_len);
  EXPECT_EQ(fresh.b_len, again.b_len);
}

TEST(XdropExtend, ScratchShrinksAfterPathologicalRead) {
  // A single huge `b` grows the thread-local rows to O(|b|); the next small
  // extension must release the watermark (down to the floor), or every pool
  // worker that ever saw a long read pins that memory for the process life.
  XDropParams params;
  const Codes tiny{0, 1};
  const Codes huge(200'000, 0);
  (void)xdrop_extend(tiny, huge, params);
  EXPECT_GE(align::detail::scratch_cells(), 200'001u);
  EXPECT_GE(scratch_peak_bytes(),
            static_cast<std::uint64_t>(align::detail::scratch_cells()) * sizeof(std::int32_t));
  const Codes small(64, 1);
  (void)xdrop_extend(small, small, params);
  EXPECT_LT(align::detail::scratch_cells(), 20'000u);  // shrunk to the floor
  EXPECT_TRUE(align::detail::scratch_invariant_holds());
  // The floor is never deallocated: repeated small calls stay put.
  const std::size_t floor = align::detail::scratch_cells();
  (void)xdrop_extend(small, small, params);
  EXPECT_EQ(align::detail::scratch_cells(), floor);
}

TEST(XdropExtend, ScratchInvariantSurvivesMidExtensionException) {
  Xoshiro256 rng(71);
  const Codes a = random_codes(300, rng);
  const Codes b = mutate(a, 0.05, rng);
  XDropParams params;
  const Extension clean = xdrop_extend(a, b, params);
  ASSERT_TRUE(align::detail::scratch_invariant_holds());

  // Fail mid-extension: the guard must wipe the partially written band so
  // the kNegInf between-calls invariant survives the unwind.
  align::detail::xdrop_row_hook = [](std::size_t row) {
    if (row == 40) throw std::runtime_error("injected mid-extension failure");
  };
  EXPECT_THROW((void)xdrop_extend(a, b, params), std::runtime_error);
  align::detail::xdrop_row_hook = nullptr;
  EXPECT_TRUE(align::detail::scratch_invariant_holds());

  // And the next extension on this thread is unpoisoned.
  const Extension again = xdrop_extend(a, b, params);
  EXPECT_EQ(clean.score, again.score);
  EXPECT_EQ(clean.a_len, again.a_len);
  EXPECT_EQ(clean.b_len, again.b_len);
}

TEST(XdropExtend, ScoreNonNegative) {
  Xoshiro256 rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const Codes a = random_codes(50 + rng.below(200), rng);
    const Codes b = random_codes(50 + rng.below(200), rng);
    XDropParams params;
    EXPECT_GE(xdrop_extend(a, b, params).score, 0);
  }
}

// ---------- xdrop_align vs exact oracle ----------

struct OracleCase {
  std::uint64_t seed;
  double error_rate;
};

class XdropOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(XdropOracle, MatchesAnchoredDpWithLargeX) {
  Xoshiro256 rng(GetParam().seed);
  const Codes ancestor = random_codes(300, rng);
  const Codes a = mutate(ancestor, GetParam().error_rate, rng);
  const Codes b = mutate(ancestor, GetParam().error_rate, rng);
  const auto anchor = find_anchor(a, b, 10);
  if (!anchor.has_value()) GTEST_SKIP() << "no anchor at this mutation rate";
  XDropParams params;
  params.x = 100'000;  // effectively unbanded: must equal the exact DP
  const Alignment got = xdrop_align(a, b, *anchor, params);
  const std::int32_t want = anchored_best_score(a, b, *anchor);
  EXPECT_EQ(got.score, want);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, XdropOracle,
    ::testing::Values(OracleCase{11, 0.0}, OracleCase{12, 0.02}, OracleCase{13, 0.05},
                      OracleCase{14, 0.10}, OracleCase{15, 0.15}, OracleCase{16, 0.20},
                      OracleCase{17, 0.10}, OracleCase{18, 0.05}, OracleCase{19, 0.15}));

TEST(XdropAlign, DefaultXCloseToExactOnTrueOverlap) {
  Xoshiro256 rng(21);
  const Codes ancestor = random_codes(400, rng);
  const Codes a = mutate(ancestor, 0.1, rng);
  const Codes b = mutate(ancestor, 0.1, rng);
  const auto anchor = find_anchor(a, b, 10);
  ASSERT_TRUE(anchor.has_value());
  const Alignment banded = xdrop_align(a, b, *anchor, XDropParams{});
  const std::int32_t exact = anchored_best_score(a, b, *anchor);
  EXPECT_LE(banded.score, exact);
  EXPECT_GE(banded.score, exact - 8);  // default X rarely loses the optimum
}

TEST(XdropAlign, CoordinatesContainSeedAndAreInBounds) {
  Xoshiro256 rng(22);
  const Codes ancestor = random_codes(300, rng);
  const Codes a = mutate(ancestor, 0.08, rng);
  const Codes b = mutate(ancestor, 0.08, rng);
  const auto anchor = find_anchor(a, b, 12);
  ASSERT_TRUE(anchor.has_value());
  const Alignment alignment = xdrop_align(a, b, *anchor, XDropParams{});
  EXPECT_LE(alignment.a_begin, anchor->a_pos);
  EXPECT_GE(alignment.a_end, anchor->a_pos + anchor->length);
  EXPECT_LE(alignment.a_end, a.size());
  EXPECT_LE(alignment.b_begin, anchor->b_pos);
  EXPECT_GE(alignment.b_end, anchor->b_pos + anchor->length);
  EXPECT_LE(alignment.b_end, b.size());
}

TEST(XdropAlign, ReverseComplementOrientation) {
  // A read and the reverse complement of another read from the same locus
  // must align once the seed carries b_reversed.
  Xoshiro256 rng(23);
  const Codes ancestor = random_codes(250, rng);
  const Codes a = mutate(ancestor, 0.05, rng);
  Codes b = mutate(ancestor, 0.05, rng);
  // b as the sequencer would emit it from the other strand:
  std::reverse(b.begin(), b.end());
  for (auto& code : b) code = static_cast<std::uint8_t>(3 - code);
  const seq::Sequence sa = seq::Sequence::from_codes(a);
  const seq::Sequence sb = seq::Sequence::from_codes(b);

  // Orient b (rc) and find an anchor in oriented coordinates.
  const auto oriented = sb.reverse_complement().unpack();
  const auto anchor = find_anchor(a, oriented, 12);
  ASSERT_TRUE(anchor.has_value());
  Seed seed = *anchor;
  seed.b_reversed = true;
  const Alignment alignment = xdrop_align(sa, sb, seed, XDropParams{});
  EXPECT_TRUE(alignment.b_reversed);
  // The two reads share ~250 mutated bases: expect a strong alignment.
  EXPECT_GT(alignment.score, 120);
}

TEST(XdropAlign, SeedAtSequenceEdges) {
  const Codes a{0, 1, 2, 3, 0, 1, 2, 3};
  const Codes b{0, 1, 2, 3, 0, 1, 2, 3};
  // Seed at the very start…
  Alignment front = xdrop_align(a, b, Seed{0, 0, 4, false}, XDropParams{});
  EXPECT_EQ(front.score, 8);
  // …and at the very end.
  Alignment back = xdrop_align(a, b, Seed{4, 4, 4, false}, XDropParams{});
  EXPECT_EQ(back.score, 8);
}

TEST(XdropAlign, IdenticalSequencesFullScore) {
  Xoshiro256 rng(25);
  const Codes a = random_codes(128, rng);
  const Alignment alignment = xdrop_align(a, a, Seed{60, 60, 10, false}, XDropParams{});
  EXPECT_EQ(alignment.score, 128);
  EXPECT_EQ(alignment.a_begin, 0u);
  EXPECT_EQ(alignment.a_end, 128u);
}

TEST(XdropAlign, SymmetricUnderSwap) {
  Xoshiro256 rng(26);
  const Codes ancestor = random_codes(200, rng);
  const Codes a = mutate(ancestor, 0.1, rng);
  const Codes b = mutate(ancestor, 0.1, rng);
  const auto anchor = find_anchor(a, b, 10);
  ASSERT_TRUE(anchor.has_value());
  const Alignment ab = xdrop_align(a, b, *anchor, XDropParams{});
  const Seed swapped{anchor->b_pos, anchor->a_pos, anchor->length, false};
  const Alignment ba = xdrop_align(b, a, swapped, XDropParams{});
  EXPECT_EQ(ab.score, ba.score);
}

// ---------- exact DP ----------

TEST(SmithWaterman, KnownSmallCase) {
  // a: ACGT, b: CG -> local alignment CG, score 2 (match=1).
  const Codes a{0, 1, 2, 3};
  const Codes b{1, 2};
  const LocalAlignment r = smith_waterman(a, b);
  EXPECT_EQ(r.score, 2);
  EXPECT_EQ(r.a_begin, 1u);
  EXPECT_EQ(r.a_end, 3u);
  EXPECT_EQ(r.b_begin, 0u);
  EXPECT_EQ(r.b_end, 2u);
}

TEST(SmithWaterman, ScoreNonNegativeAndBounded) {
  Xoshiro256 rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Codes a = random_codes(60 + rng.below(80), rng);
    const Codes b = random_codes(60 + rng.below(80), rng);
    const LocalAlignment r = smith_waterman(a, b);
    EXPECT_GE(r.score, 0);
    EXPECT_LE(r.score, static_cast<std::int32_t>(std::min(a.size(), b.size())));
  }
}

TEST(SmithWaterman, CoordinatesRecoverScore) {
  // Re-running SW on the reported sub-ranges must reach the same score.
  Xoshiro256 rng(32);
  const Codes ancestor = random_codes(120, rng);
  const Codes a = mutate(ancestor, 0.1, rng);
  const Codes b = mutate(ancestor, 0.1, rng);
  const LocalAlignment r = smith_waterman(a, b);
  ASSERT_GT(r.score, 0);
  const Codes sub_a(a.begin() + r.a_begin, a.begin() + r.a_end);
  const Codes sub_b(b.begin() + r.b_begin, b.begin() + r.b_end);
  EXPECT_EQ(smith_waterman(sub_a, sub_b).score, r.score);
}

TEST(NeedlemanWunsch, KnownCases) {
  const Codes a{0, 1, 2, 3};
  EXPECT_EQ(needleman_wunsch_score(a, a), 4);
  const Codes empty;
  EXPECT_EQ(needleman_wunsch_score(a, empty), -4);  // all gaps
  const Codes b{0, 1, 3};  // one deletion
  EXPECT_EQ(needleman_wunsch_score(a, b), 2);       // 3 matches - 1 gap
}

TEST(NeedlemanWunsch, NeverAboveSmithWaterman) {
  Xoshiro256 rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    const Codes a = random_codes(50, rng);
    const Codes b = random_codes(50, rng);
    EXPECT_LE(needleman_wunsch_score(a, b), smith_waterman(a, b).score);
  }
}

TEST(AnchoredOracle, SeedOnlyWhenNothingExtends) {
  const Codes a{0, 0, 1, 2, 3, 3};
  const Codes b{1, 1, 1, 2, 0, 0};
  // Seed covering b[2..4) == a[2..4) == {1,2}.
  const Seed seed{2, 2, 2, false};
  const std::int32_t score = anchored_best_score(a, b, seed);
  EXPECT_GE(score, 2);
}

// ---------- banded ----------

TEST(Banded, MatchesNwWhenBandIsWide) {
  Xoshiro256 rng(41);
  const Codes ancestor = random_codes(150, rng);
  const Codes a = mutate(ancestor, 0.08, rng);
  const Codes b = mutate(ancestor, 0.08, rng);
  const BandedResult banded = banded_global(a, b, std::max(a.size(), b.size()));
  EXPECT_EQ(banded.score, needleman_wunsch_score(a, b));
}

TEST(Banded, NarrowBandNeverBeatsExact) {
  Xoshiro256 rng(42);
  const Codes ancestor = random_codes(150, rng);
  const Codes a = mutate(ancestor, 0.1, rng);
  const Codes b = mutate(ancestor, 0.1, rng);
  const std::size_t diff = a.size() > b.size() ? a.size() - b.size() : b.size() - a.size();
  const BandedResult banded = banded_global(a, b, diff + 4);
  EXPECT_LE(banded.score, needleman_wunsch_score(a, b));
}

TEST(Banded, TooNarrowBandThrows) {
  const Codes a(20, 0);
  const Codes b(5, 0);
  EXPECT_THROW(banded_global(a, b, 3), Error);
}

TEST(Banded, CellCountBoundedByBand) {
  const Codes a(200, 1), b(200, 1);
  const BandedResult r = banded_global(a, b, 5);
  EXPECT_LE(r.cells, 200u * 11 + 11);
}

// ---------- overlap classification ----------

namespace {
Alignment make_alignment(std::uint32_t ab, std::uint32_t ae, std::uint32_t bb,
                         std::uint32_t be) {
  Alignment alignment;
  alignment.a_begin = ab;
  alignment.a_end = ae;
  alignment.b_begin = bb;
  alignment.b_end = be;
  alignment.score = 100;
  return alignment;
}
}  // namespace

TEST(Overlap, DovetailAtoB) {
  // Suffix of A (600..1000) matches prefix of B (0..400).
  const auto kind = classify_overlap(make_alignment(600, 1000, 0, 400), 1000, 900, 30);
  EXPECT_EQ(kind, OverlapKind::kDovetailAB);
}

TEST(Overlap, DovetailBtoA) {
  const auto kind = classify_overlap(make_alignment(0, 400, 500, 900), 1000, 900, 30);
  EXPECT_EQ(kind, OverlapKind::kDovetailBA);
}

TEST(Overlap, Containment) {
  EXPECT_EQ(classify_overlap(make_alignment(200, 700, 0, 500), 1000, 500, 30),
            OverlapKind::kContainsB);
  EXPECT_EQ(classify_overlap(make_alignment(0, 500, 200, 700), 500, 1000, 30),
            OverlapKind::kContainedInB);
}

TEST(Overlap, SlackToleratesFrayedEnds) {
  // 20 unaligned bases at A's end should still read as dovetail A->B.
  const auto kind = classify_overlap(make_alignment(600, 980, 15, 400), 1000, 900, 30);
  EXPECT_EQ(kind, OverlapKind::kDovetailAB);
}

TEST(Overlap, OverhangZeroForPerfectDovetail) {
  EXPECT_EQ(overhang(make_alignment(600, 1000, 0, 400), 1000, 900), 0u);
  EXPECT_GT(overhang(make_alignment(300, 500, 300, 500), 1000, 1000), 0u);
}

TEST(Overlap, ToStringCoversAllKinds) {
  for (auto kind : {OverlapKind::kDovetailAB, OverlapKind::kDovetailBA,
                    OverlapKind::kContainsB, OverlapKind::kContainedInB}) {
    EXPECT_STRNE(to_string(kind), "?");
  }
}

// ---------- scoring / filter ----------

TEST(Scoring, SubstitutionTable) {
  const Scoring s;
  EXPECT_EQ(s.substitution(0, 0), s.match);
  EXPECT_EQ(s.substitution(0, 1), s.mismatch);
  EXPECT_EQ(s.substitution(seq::kN, seq::kN), s.mismatch);  // N never matches
  EXPECT_EQ(s.substitution(2, seq::kN), s.mismatch);
}

TEST(Filter, ThresholdsAreInclusive) {
  const AlignmentFilter filter{100, 50};
  Alignment alignment = make_alignment(0, 50, 0, 50);
  alignment.score = 100;
  EXPECT_TRUE(filter.accepts(alignment));
  alignment.score = 99;
  EXPECT_FALSE(filter.accepts(alignment));
  alignment.score = 100;
  alignment.a_end = 49;
  alignment.b_end = 48;  // overlap length (49+48)/2 = 48 < 50
  EXPECT_FALSE(filter.accepts(alignment));
}

// ---------- PAF match-count derivation ----------

namespace {
seq::ReadStore two_read_store(std::size_t len_a, std::size_t len_b) {
  Xoshiro256 rng(81);
  seq::ReadStore store;
  store.add("read_a", seq::Sequence::from_codes(random_codes(len_a, rng)));
  store.add("read_b", seq::Sequence::from_codes(random_codes(len_b, rng)));
  return store;
}
}  // namespace

TEST(Paf, MatchesDerivedFromActualScoring) {
  // Regression: to_paf used to hard-wire the +1/-1 default into the matches
  // estimate. Under match=2/mismatch=-3, a 100-column block of 90 matches
  // and 10 mismatches scores 90*2 - 10*3 = 150; inverting must give 90 back.
  const seq::ReadStore reads = two_read_store(100, 100);
  AlignmentRecord record;
  record.read_a = 0;
  record.read_b = 1;
  record.alignment = make_alignment(0, 100, 0, 100);
  record.alignment.score = 150;

  Scoring scoring;
  scoring.match = 2;
  scoring.mismatch = -3;
  EXPECT_EQ(to_paf(record, reads, scoring).matches, 90u);

  // The old formula ((block + score) / 2, i.e. the +1/-1 inversion) would
  // claim 125 "matches" in a 100-column block — over block_length.
  EXPECT_EQ(to_paf(record, reads).matches, 100u);  // default scoring: clamped
}

TEST(Paf, MatchesClampedToBlockLength) {
  const seq::ReadStore reads = two_read_store(60, 60);
  AlignmentRecord record;
  record.read_a = 0;
  record.read_b = 1;
  record.alignment = make_alignment(0, 50, 0, 50);
  record.alignment.score = 50;  // perfect 50-match block at +1/-1
  const PafRecord perfect = to_paf(record, reads);
  EXPECT_EQ(perfect.matches, 50u);
  EXPECT_EQ(perfect.block_length, 50u);

  record.alignment.score = -200;  // hostile score: clamp at zero
  EXPECT_EQ(to_paf(record, reads).matches, 0u);
}

TEST(Paf, RoundTripsThroughFormatAndParse) {
  const seq::ReadStore reads = two_read_store(80, 90);
  AlignmentRecord record;
  record.read_a = 0;
  record.read_b = 1;
  record.alignment = make_alignment(5, 70, 10, 80);
  record.alignment.score = 42;
  record.alignment.b_reversed = true;
  Scoring scoring;
  scoring.match = 5;
  scoring.mismatch = -4;
  const PafRecord out = to_paf(record, reads, scoring);
  const PafRecord back = parse_paf(format_paf(out));
  EXPECT_EQ(back.matches, out.matches);
  EXPECT_EQ(back.block_length, out.block_length);
  EXPECT_EQ(back.score, out.score);
  EXPECT_TRUE(back.reverse_strand);
  // Reverse-strand target coordinates are reported on the forward strand.
  EXPECT_EQ(back.target_begin, 90u - 80u);
  EXPECT_EQ(back.target_end, 90u - 10u);
}

// --- BatchAligner: seam behavior and row-kernel edge cases ------------------
//
// The fuzz sweep (test_fuzz_parity) hammers backend bit-identity across
// randomized scoring and batch shapes; these tests pin deliberate edge
// cases — empty batches, extensions that terminate on the first rows, mixed
// lengths in one batch, row widths at 8-, 32- and 64-cell chunk edges,
// left-gap chains and best updates that cross chunks, the column-0 edge
// cell, N on both sides, scorings at the edge of the int8 bounds — and the
// row-0 cell accounting both backends must share.
//
// The dispatcher runs only the widest instantiation the host allows, so the
// RowKernel* cases, AllLanesEarlyTerminate and MixedLengthsRetireAndRefill
// also call every instantiation this binary has and this CPU runs directly
// (detail::row_kernels()): 64 int8 lanes (AVX-512), 32 int8 lanes (AVX2)
// and 8 int32 lanes (portable), each where the scoring fits its bound. Each
// test that needs a wide x to keep its case live also runs a case the int8
// bounds admit. RowKernels/RowKernelInstantiation.* names each
// instantiation and skips, with the reason, any this host cannot run.

TEST(BatchAligner, EmptyBatchReturnsEmpty) {
  for (const auto kind : {proto::BatchAlignerKind::kScalar, proto::BatchAlignerKind::kSimd}) {
    const auto backend = make_batch_aligner(kind, {});
    EXPECT_TRUE(backend->align({}).empty());
    EXPECT_EQ(backend->stats().batches, 1u);  // an empty batch still counts
    EXPECT_EQ(backend->stats().tasks, 0u);
    EXPECT_EQ(backend->stats().cells, 0u);
  }
}

namespace {

using align::detail::RowKernel;

/// The instantiation called `name` in detail::row_kernels().
const RowKernel& row_kernel(std::string_view name) {
  for (const RowKernel& kernel : align::detail::row_kernels())
    if (kernel.name == name) return kernel;
  throw std::logic_error("no row kernel " + std::string(name));
}

/// Name of the widest instantiation this host runs at the default scoring.
const char* widest_kernel() {
  return row_kernel("simd-avx512").runnable() ? "simd-avx512"
         : row_kernel("simd-avx2").runnable() ? "simd-avx2"
                                              : "simd-portable";
}

}  // namespace

TEST(BatchAligner, InfoReportsRequestedBackend) {
  const auto scalar = make_batch_aligner(proto::BatchAlignerKind::kScalar, {});
  EXPECT_STREQ(scalar->info().name, "scalar");
  EXPECT_EQ(scalar->info().lanes, 1u);
  EXPECT_FALSE(scalar->info().simd);
  const auto simd = make_batch_aligner(proto::BatchAlignerKind::kSimd, {});
  EXPECT_TRUE(simd->info().simd);
  EXPECT_STREQ(simd->info().name, widest_kernel());
  // The startup log line names the kernel that runs.
  const std::string report = batch_aligner_report(proto::BatchAlignerKind::kAuto);
  EXPECT_NE(report.find(std::string("batch aligner: ") + widest_kernel()), std::string::npos)
      << report;
}

TEST(BatchAligner, SelectsWidestExactInstantiation) {
  // At unit scoring (m = 1) the 64-lane kernel's bound x + 64m < 2^7 admits
  // x up to 63 and the 32-lane kernel's x + 32m < 2^7 up to 95; past both,
  // the portable kernel's 8 int32 lanes run. The default x = 49 fits both
  // int8 kernels. Where the binary lacks a kernel or the CPU cannot run it,
  // the next narrower one takes its place.
  const bool avx512 = row_kernel("simd-avx512").runnable();
  const bool avx2 = row_kernel("simd-avx2").runnable();
  const std::size_t at32 = avx2 ? 32 : 8;
  const std::size_t at64 = avx512 ? 64 : at32;
  const auto lanes_at = [](const XDropParams& params) {
    const auto simd = make_batch_aligner(proto::BatchAlignerKind::kSimd, params);
    const BatchAlignerInfo info = simd->info();
    EXPECT_STREQ(info.name, info.lanes == 64   ? "simd-avx512"
                            : info.lanes == 32 ? "simd-avx2"
                                               : "simd-portable");
    EXPECT_EQ(info.backend_id, info.lanes == 64 ? 3u : info.lanes == 32 ? 2u : 1u);
    return info.lanes;
  };
  EXPECT_EQ(lanes_at({}), at64);
  for (const auto& [x, fits64, fits32, lanes] :
       {std::tuple{63, true, true, at64}, std::tuple{64, false, true, at32},
        std::tuple{95, false, true, at32}, std::tuple{96, false, false, std::size_t{8}}}) {
    SCOPED_TRACE("x " + std::to_string(x));
    XDropParams edge;
    edge.x = x;
    EXPECT_EQ(align::detail::fits_int8(edge, 64), fits64);
    EXPECT_EQ(align::detail::fits_int8(edge, 32), fits32);
    EXPECT_EQ(lanes_at(edge), lanes);
  }
  XDropParams unbanded;
  unbanded.x = 100'000;
  EXPECT_EQ(lanes_at(unbanded), 8u);
  // At m = 2 no x fits 64 lanes; 32 lanes admit x up to 63.
  XDropParams wide_gap;
  wide_gap.scoring.gap = -2;
  wide_gap.x = 0;
  EXPECT_FALSE(align::detail::fits_int8(wide_gap, 64));
  wide_gap.x = 63;
  EXPECT_EQ(lanes_at(wide_gap), at32);
  ++wide_gap.x;
  EXPECT_EQ(lanes_at(wide_gap), 8u);
  XDropParams steep;
  steep.scoring.mismatch = -3;
  steep.x = 31;  // 31 + 32 * 3 = 2^7 - 1
  EXPECT_EQ(lanes_at(steep), at32);
  steep.scoring.match = 4;
  EXPECT_EQ(lanes_at(steep), 8u);
}

namespace {

/// Owned-storage batch: tasks span into `storage`, built in a second pass.
struct TaskBatch {
  std::vector<Codes> storage;  // 2 per task
  std::vector<Seed> seeds;

  void add(Codes a, Codes b, Seed seed) {
    storage.push_back(std::move(a));
    storage.push_back(std::move(b));
    seeds.push_back(seed);
  }
  [[nodiscard]] std::vector<AlignTask> tasks() const {
    std::vector<AlignTask> out;
    for (std::size_t t = 0; t < seeds.size(); ++t)
      out.push_back(AlignTask{storage[2 * t], storage[2 * t + 1], seeds[t]});
    return out;
  }
};

void expect_batches_equal(const std::vector<Alignment>& base,
                          const std::vector<Alignment>& got) {
  ASSERT_EQ(base.size(), got.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].score, got[i].score) << "task " << i;
    EXPECT_EQ(base[i].a_begin, got[i].a_begin) << "task " << i;
    EXPECT_EQ(base[i].a_end, got[i].a_end) << "task " << i;
    EXPECT_EQ(base[i].b_begin, got[i].b_begin) << "task " << i;
    EXPECT_EQ(base[i].b_end, got[i].b_end) << "task " << i;
    EXPECT_EQ(base[i].cells, got[i].cells) << "task " << i;
  }
}

/// `codes` with exactly align::detail::kBPad bytes on each side and nothing
/// more, so ASan flags a row-kernel read past the documented padding.
class PaddedCodes {
 public:
  explicit PaddedCodes(const Codes& codes) : buf_(codes.size() + 2 * align::detail::kBPad, 0) {
    std::copy(codes.begin(), codes.end(), buf_.begin() + align::detail::kBPad);
  }
  [[nodiscard]] const std::uint8_t* data() const { return buf_.data() + align::detail::kBPad; }

 private:
  std::vector<std::uint8_t> buf_;
};

using Pairs = std::vector<std::pair<Codes, Codes>>;

/// Run one instantiation directly on (a, b) pairs and compare every
/// Extension with xdrop_extend. Returns the kernel's stats.
BatchStats expect_row_kernel_exact(const RowKernel& kernel, const Pairs& pairs,
                                   const XDropParams& params) {
  SCOPED_TRACE(kernel.name);
  std::vector<PaddedCodes> padded;
  padded.reserve(pairs.size());
  std::vector<align::detail::ExtJob> jobs;
  for (const auto& [a, b] : pairs) {
    padded.emplace_back(b);
    jobs.push_back(align::detail::ExtJob{a.data(), static_cast<std::int32_t>(a.size()),
                                         padded.back().data(),
                                         static_cast<std::int32_t>(b.size())});
  }
  std::vector<Extension> out(jobs.size());
  align::detail::RowScratch rows;
  BatchStats stats;
  kernel.run(jobs, params, out, rows, stats);
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    const Extension expected = xdrop_extend(pairs[t].first, pairs[t].second, params);
    EXPECT_EQ(out[t].score, expected.score) << "job " << t;
    EXPECT_EQ(out[t].a_len, expected.a_len) << "job " << t;
    EXPECT_EQ(out[t].b_len, expected.b_len) << "job " << t;
    EXPECT_EQ(out[t].cells, expected.cells) << "job " << t;
  }
  return stats;
}

/// One direct run of an instantiation over a set of pairs.
struct KernelRun {
  std::size_t lanes;
  BatchStats stats;
};

/// expect_row_kernel_exact for every instantiation this host runs whose
/// bound admits `params`, widest first.
std::vector<KernelRun> expect_kernels_exact(const Pairs& pairs, const XDropParams& params) {
  std::vector<KernelRun> runs;
  for (const RowKernel& kernel : align::detail::row_kernels())
    if (kernel.runnable() && kernel.exact_for(params))
      runs.push_back({static_cast<std::size_t>(kernel.lanes),
                      expect_row_kernel_exact(kernel, pairs, params)});
  return runs;
}

/// Whether `runs` holds a run of `lanes` lanes.
bool ran_at(const std::vector<KernelRun>& runs, std::size_t lanes) {
  return std::any_of(runs.begin(), runs.end(),
                     [&](const KernelRun& run) { return run.lanes == lanes; });
}

/// Check (a, b) pairs through the dispatched `simd` backend against the
/// scalar oracle — each pair is the rightward extension of one task and,
/// reversed, the leftward extension of another — and through every
/// instantiation directly (expect_kernels_exact). Returns the direct runs.
std::vector<KernelRun> expect_row_kernels_exact(const Pairs& pairs, const XDropParams& params) {
  TaskBatch batch;
  for (const auto& [a, b] : pairs) {
    Codes ra(a.rbegin(), a.rend());
    Codes rb(b.rbegin(), b.rend());
    ra.push_back(0);
    rb.push_back(0);
    const Seed left_seed{static_cast<std::uint32_t>(a.size()),
                         static_cast<std::uint32_t>(b.size()), 1, false};
    batch.add(std::move(ra), std::move(rb), left_seed);
    Codes fa{0};
    Codes fb{0};
    fa.insert(fa.end(), a.begin(), a.end());
    fb.insert(fb.end(), b.begin(), b.end());
    batch.add(std::move(fa), std::move(fb), Seed{0, 0, 1, false});
  }
  const auto tasks = batch.tasks();
  const auto scalar = make_batch_aligner(proto::BatchAlignerKind::kScalar, params);
  const auto simd = make_batch_aligner(proto::BatchAlignerKind::kSimd, params);
  expect_batches_equal(scalar->align(tasks), simd->align(tasks));
  return expect_kernels_exact(pairs, params);
}

/// The (a, b) pair of every non-empty extension of `tasks`: the reversed
/// prefixes before each seed, and the suffixes after it.
Pairs extension_pairs(const std::vector<AlignTask>& tasks) {
  Pairs pairs;
  for (const AlignTask& task : tasks) {
    const Seed& seed = task.seed;
    if (seed.a_pos > 0 && seed.b_pos > 0)
      pairs.emplace_back(Codes(task.a.rend() - seed.a_pos, task.a.rend()),
                         Codes(task.b.rend() - seed.b_pos, task.b.rend()));
    if (seed.a_pos + seed.length < task.a.size() && seed.b_pos + seed.length < task.b.size())
      pairs.emplace_back(Codes(task.a.begin() + seed.a_pos + seed.length, task.a.end()),
                         Codes(task.b.begin() + seed.b_pos + seed.length, task.b.end()));
  }
  return pairs;
}

}  // namespace

TEST(BatchAligner, AllLanesEarlyTerminate) {
  // Every task is an unrelated pair: each extension's band collapses within
  // a few rows. Cell counts must match the scalar kernel exactly (the
  // early-termination rows are where the old row-0 miscount lived).
  Xoshiro256 rng(77);
  TaskBatch batch;
  for (int t = 0; t < 20; ++t) {
    Codes a = random_codes(300, rng);
    Codes b = random_codes(300, rng);
    for (std::uint32_t i = 0; i < 13; ++i) b[150 + i] = a[150 + i];
    batch.add(std::move(a), std::move(b), Seed{150, 150, 13, false});
  }
  const auto tasks = batch.tasks();
  const auto scalar = make_batch_aligner(proto::BatchAlignerKind::kScalar, {});
  const auto simd = make_batch_aligner(proto::BatchAlignerKind::kSimd, {});
  expect_batches_equal(scalar->align(tasks), simd->align(tasks));
  expect_kernels_exact(extension_pairs(tasks), {});
}

TEST(BatchAligner, MixedLengthsRetireAndRefill) {
  // Lengths spanning two orders of magnitude in one batch: short extensions
  // end while long ones keep extending, so the row scratch is reused at
  // every width. Identical sequences make every extension run to its full
  // length (no early termination hides a bookkeeping bug).
  Xoshiro256 rng(78);
  TaskBatch batch;
  const std::size_t lengths[] = {8, 900, 16, 700, 31, 500, 64, 300,
                                 9, 1100, 17, 40, 33, 250, 65, 128, 12};
  for (const std::size_t len : lengths) {
    Codes a = random_codes(len, rng);
    Codes b = a;  // identical: full-length extension both directions
    const std::uint16_t k = static_cast<std::uint16_t>(std::min<std::size_t>(7, len));
    const std::uint32_t pos = static_cast<std::uint32_t>(len / 2 - k / 2);
    batch.add(std::move(a), std::move(b), Seed{pos, pos, k, false});
  }
  const auto tasks = batch.tasks();
  const auto scalar = make_batch_aligner(proto::BatchAlignerKind::kScalar, {});
  const auto simd = make_batch_aligner(proto::BatchAlignerKind::kSimd, {});
  expect_batches_equal(scalar->align(tasks), simd->align(tasks));
  expect_kernels_exact(extension_pairs(tasks), {});
  // Full-length identical extensions: score equals read length (match = +1).
  const auto results = scalar->align(tasks);
  for (std::size_t t = 0; t < results.size(); ++t)
    EXPECT_EQ(results[t].score, static_cast<std::int32_t>(lengths[t])) << "task " << t;
}

TEST(BatchAligner, SeedAtSequenceEdgesLeavesEmptyExtensions) {
  // Seeds flush against either end produce zero-length extensions on one
  // side; the batch backend must resolve those without enqueueing a lane
  // job (nb >= 1 is a lane-engine precondition).
  Xoshiro256 rng(79);
  Codes a = random_codes(200, rng);
  TaskBatch batch;
  batch.add(a, a, Seed{0, 0, 13, false});  // nothing to the left
  batch.add(a, a, Seed{static_cast<std::uint32_t>(a.size() - 13),
                       static_cast<std::uint32_t>(a.size() - 13), 13, false});
  const auto tasks = batch.tasks();
  const auto scalar = make_batch_aligner(proto::BatchAlignerKind::kScalar, {});
  const auto simd = make_batch_aligner(proto::BatchAlignerKind::kSimd, {});
  expect_batches_equal(scalar->align(tasks), simd->align(tasks));
}

TEST(BatchAligner, StatsAccumulateAcrossBatches) {
  Xoshiro256 rng(80);
  TaskBatch batch;
  Codes a = random_codes(120, rng);
  batch.add(a, a, Seed{60, 60, 13, false});
  const auto tasks = batch.tasks();
  const auto backend = make_batch_aligner(proto::BatchAlignerKind::kSimd, {});
  const auto first = backend->align(tasks);
  const BatchStats after_one = backend->stats();
  EXPECT_EQ(after_one.batches, 1u);
  EXPECT_EQ(after_one.tasks, 1u);
  EXPECT_EQ(after_one.cells, first[0].cells);
  EXPECT_GE(after_one.lane_steps, after_one.lane_steps_active);
  backend->align(tasks);
  const BatchStats after_two = backend->stats();
  EXPECT_EQ(after_two.batches, 2u);
  EXPECT_EQ(after_two.tasks, 2u);
  EXPECT_EQ(after_two.cells, 2 * first[0].cells);
  EXPECT_GT(after_two.occupancy(), 0.0);
  EXPECT_LE(after_two.occupancy(), 1.0);
}

namespace {

/// Each instantiation by its index in detail::row_kernels().
class RowKernelInstantiation : public ::testing::TestWithParam<std::size_t> {};

}  // namespace

TEST_P(RowKernelInstantiation, MatchesXdropExtend) {
  // Related (12 % error) and unrelated pairs of 40-440 bases, at the default
  // scoring and at the widest x the kernel admits at unit scoring: its int8
  // bound, or x = 1000 for the portable int32 kernel.
  const RowKernel& kernel = align::detail::row_kernels()[GetParam()];
  if (kernel.run == nullptr)
    GTEST_SKIP() << kernel.name << " is not compiled in (GNB_SIMD=OFF, or the compiler "
                 << "does not accept its ISA flags)";
  if (!kernel.cpu_runs()) GTEST_SKIP() << kernel.name << ": this CPU lacks its ISA";
  Xoshiro256 rng(81);
  Pairs pairs;
  for (std::size_t t = 0; t < 19; ++t) {
    Codes seq_a = random_codes(40 + rng.below(400), rng);
    Codes seq_b = t % 3 == 0 ? random_codes(40 + rng.below(400), rng) : mutate(seq_a, 0.12, rng);
    pairs.emplace_back(std::move(seq_a), std::move(seq_b));
  }
  XDropParams widest;
  widest.x = kernel.int8 ? (1 << 7) - 1 - kernel.lanes : 1000;
  for (const XDropParams& params : {XDropParams{}, widest}) {
    SCOPED_TRACE("x " + std::to_string(params.x));
    ASSERT_TRUE(kernel.exact_for(params));
    const BatchStats stats = expect_row_kernel_exact(kernel, pairs, params);
    EXPECT_EQ(stats.lane_steps % static_cast<std::uint64_t>(kernel.lanes), 0u);
    EXPECT_GE(stats.lane_steps, stats.lane_steps_active);
    EXPECT_GT(stats.lane_steps_active, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(RowKernels, RowKernelInstantiation,
                         ::testing::Range<std::size_t>(0, align::detail::row_kernels().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& param) {
                           // "simd-avx512" -> "avx512"
                           return std::string(align::detail::row_kernels()[param.param].name)
                               .substr(5);
                         });

TEST(BatchAligner, RowKernelChunkEdgeWidths) {
  // When x exceeds every score drop nothing is pruned, so every row after
  // row 0 spans all nb + 1 columns: b of length w - 1 pins the width at w.
  // Three cases keep that true over 24 rows:
  //   - at gap 0 every cell is >= 0 and the best <= 24, so x = 63, the
  //     64-lane bound, prunes nothing at any width: every instantiation
  //     runs every width, 127-129 included;
  //   - at gap -1 every cell of 65 columns is >= -65, so x = 95, the
  //     32-lane bound, prunes nothing there;
  //   - x = 1000 runs the portable kernel alone, at every width.
  Xoshiro256 rng(82);
  constexpr std::size_t kRows = 24;
  struct Case {
    std::int32_t x, gap;
    std::size_t max_width;
  };
  for (const Case c : {Case{63, 0, 129}, Case{95, -1, 65}, Case{1000, -1, 129}}) {
    XDropParams wide;
    wide.x = c.x;
    wide.scoring.gap = c.gap;
    for (const std::size_t width :
         {7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129}) {
      if (width > c.max_width) continue;
      SCOPED_TRACE("x " + std::to_string(c.x) + " gap " + std::to_string(c.gap) + " width " +
                   std::to_string(width));
      const Pairs pairs{{random_codes(kRows, rng), random_codes(width - 1, rng)}};
      for (const auto& [lanes, stats] : expect_row_kernels_exact(pairs, wide)) {
        EXPECT_EQ(stats.lane_steps_active, kRows * width) << lanes << " lanes";
        EXPECT_EQ(stats.lane_steps, kRows * lanes * ((width + lanes - 1) / lanes))
            << lanes << " lanes";
      }
    }
  }
  // Width 1: with x = 0 an identical run keeps a 2-cell band on the
  // diagonal; once b is used up, the row past its end holds column nb alone.
  const Codes b = random_codes(6, rng);
  Codes a = b;
  const Codes tail = random_codes(10, rng);
  a.insert(a.end(), tail.begin(), tail.end());
  XDropParams tight;
  tight.x = 0;
  for (const auto& [lanes, stats] : expect_row_kernels_exact({{a, b}}, tight)) {
    EXPECT_EQ(stats.lane_steps_active, 6u * 2 + 1) << lanes << " lanes";
    EXPECT_EQ(stats.lane_steps, 7u * lanes) << lanes << " lanes";
  }
}

TEST(BatchAligner, RowKernelLongInsertionCrossesChunks) {
  // `length` inserted bases in b: the best path runs `length` columns along
  // one row, a left-gap chain that crosses chunk boundaries — two 8-column
  // ones at 24 bases, two 32-column ones at 72, and a 64-column one at 55,
  // which starts about 30 columns into its row. x = length * |gap| + 8
  // keeps the chain live: at gap -1 every chain fits the 32-lane bound,
  // and the 24- and 55-base ones (x = 32 and 63) the 64-lane bound too;
  // the 24-base chain at gap -3 needs x = 80 at m = 3, which the portable
  // kernel runs.
  Xoshiro256 rng(83);
  const Codes a = random_codes(200, rng);
  struct Case {
    std::uint32_t length;
    std::int32_t gap;
    bool fits32, fits64;
  };
  for (const Case c : {Case{24, -1, true, true}, Case{24, -3, false, false},
                       Case{72, -1, true, false}, Case{55, -1, true, true}}) {
    SCOPED_TRACE("length " + std::to_string(c.length) + " gap " + std::to_string(c.gap));
    Codes b(a.begin(), a.begin() + 60);
    const Codes insert = random_codes(c.length, rng);
    b.insert(b.end(), insert.begin(), insert.end());
    b.insert(b.end(), a.begin() + 60, a.end());
    XDropParams params;
    params.scoring.gap = c.gap;
    params.x = static_cast<std::int32_t>(c.length) * -c.gap + 8;  // the chain stays live
    EXPECT_EQ(align::detail::fits_int8(params, 32), c.fits32);
    EXPECT_EQ(align::detail::fits_int8(params, 64), c.fits64);
    const auto runs = expect_row_kernels_exact({{a, b}}, params);
    EXPECT_EQ(ran_at(runs, 64), c.fits64 && row_kernel("simd-avx512").runnable());
    const Extension ext = xdrop_extend(a, b, params);
    EXPECT_EQ(ext.a_len, 200u);
    EXPECT_EQ(ext.b_len, 200u + c.length);
    EXPECT_EQ(ext.score, 200 + static_cast<std::int32_t>(c.length) * c.gap);
  }
}

TEST(BatchAligner, RowKernelBestImprovesInTwoChunks) {
  // Rows that raise the running best in one chunk and go on into a later
  // one, which must test against the raised floor. A plain X-drop DP
  // (xdrop_extend's band and drop rule) confirms, per chunk width, that
  // the pairs hold rows raising the best past their first chunk and rows
  // raising it before their last, before comparing kernels:
  //   - match = 2 on unrelated 60-base reads, at 8- and 32-cell chunks,
  //     where some rows raise the best in two different chunks too; x = 63
  //     is the largest the 32-lane bound admits at m = 2, and x = 1000
  //     prunes nothing and runs the portable kernel;
  //   - unit scoring on unrelated 200-base reads, at 64-cell chunks, with
  //     x = 63, the 64-lane bound. At m = 1, the only scoring 64 lanes
  //     admit, every cell of a row is at most the previous best + 1, so a
  //     row raises the best once at most.
  constexpr std::int32_t kDropped = std::numeric_limits<std::int32_t>::min() / 4;
  struct Case {
    std::int32_t x, match;
    std::size_t length;
    std::vector<std::size_t> chunk_widths;
    bool twice;  // some row raises the best in two different chunks
  };
  for (const Case& c : {Case{63, 2, 60, {8, 32}, true}, Case{1000, 2, 60, {8, 32}, true},
                        Case{63, 1, 200, {64}, false}}) {
    SCOPED_TRACE("x " + std::to_string(c.x) + " match " + std::to_string(c.match));
    XDropParams params;
    params.x = c.x;
    params.scoring.match = c.match;
    const Scoring sc = params.scoring;
    Xoshiro256 rng(84);
    Pairs pairs;
    // Per chunk width: rows raising the best in a chunk past their first,
    // in a chunk before their last, and in two different chunks.
    std::vector<std::size_t> late(c.chunk_widths.size()), early(late), twice(late);
    for (int t = 0; t < 8; ++t) {
      Codes a = random_codes(c.length, rng);
      Codes b = random_codes(c.length, rng);
      std::vector<std::int32_t> prev(b.size() + 1, kDropped), curr(b.size() + 1, kDropped);
      std::int32_t best = 0;
      std::size_t lo = 0, hi = 0;
      for (std::size_t j = 0; j <= b.size(); ++j) {
        if (static_cast<std::int32_t>(j) * sc.gap < -c.x) break;
        prev[j] = static_cast<std::int32_t>(j) * sc.gap;
      }
      for (std::size_t j = 0; j < prev.size() && prev[j] != kDropped; ++j) hi = j;
      for (std::size_t i = 1; i <= a.size() && lo <= hi; ++i) {
        const std::size_t row_lo = lo, row_hi = std::min(hi + 1, b.size());
        std::size_t first_col = SIZE_MAX, last_col = SIZE_MAX;
        lo = SIZE_MAX;
        hi = 0;
        std::fill(curr.begin(), curr.end(), kDropped);
        for (std::size_t j = row_lo; j <= row_hi; ++j) {
          std::int32_t cell = j == 0 ? static_cast<std::int32_t>(i) * sc.gap : kDropped;
          if (j > 0) {
            if (prev[j - 1] != kDropped)
              cell = prev[j - 1] + sc.substitution(a[i - 1], b[j - 1]);
            if (prev[j] != kDropped) cell = std::max(cell, prev[j] + sc.gap);
            if (j > row_lo && curr[j - 1] != kDropped)
              cell = std::max(cell, curr[j - 1] + sc.gap);
          }
          if (cell < best - c.x) continue;
          curr[j] = cell;
          lo = std::min(lo, j);
          hi = std::max(hi, j);
          if (cell <= best) continue;
          best = cell;
          if (first_col == SIZE_MAX) first_col = j - row_lo;
          last_col = j - row_lo;
        }
        for (std::size_t w = 0; w < c.chunk_widths.size() && first_col != SIZE_MAX; ++w) {
          const std::size_t width = c.chunk_widths[w];
          late[w] += first_col >= width;
          early[w] += first_col / width < (row_hi - row_lo) / width;
          twice[w] += first_col / width != last_col / width;
        }
        std::swap(prev, curr);
      }
      EXPECT_EQ(best, xdrop_extend(a, b, params).score) << "pair " << t;
      pairs.emplace_back(std::move(a), std::move(b));
    }
    for (std::size_t w = 0; w < c.chunk_widths.size(); ++w) {
      SCOPED_TRACE(std::to_string(c.chunk_widths[w]) + "-cell chunks");
      EXPECT_GT(late[w], 0u);
      EXPECT_GT(early[w], 0u);
      EXPECT_EQ(twice[w] > 0, c.twice);
    }
    const auto runs = expect_row_kernels_exact(pairs, params);
    EXPECT_EQ(ran_at(runs, 64), c.match == 1 && row_kernel("simd-avx512").runnable());
  }
}

TEST(BatchAligner, RowKernelBandPinnedAtColumnZero) {
  // No base of a matches b, so the best stays 0 and column 0 (score i*gap)
  // stays live for x rows: the j = 0 edge cell is evaluated row after row.
  const Codes all_a(90, 0);
  const Codes all_c(70, 1);
  Xoshiro256 rng(85);
  for (const std::int32_t gap : {-1, -3}) {
    SCOPED_TRACE("gap " + std::to_string(gap));
    XDropParams params;
    params.scoring.gap = gap;
    params.x = 60;
    expect_row_kernels_exact({{all_a, all_c},
                              {random_codes(200, rng), random_codes(180, rng)},
                              {random_codes(30, rng), random_codes(300, rng)}},
                             params);
  }
}

TEST(BatchAligner, RowKernelNRunsOnBothSides) {
  // N never matches, not even N against N (scoring.hpp); the kernel maps an
  // N in a to -1 so the vector compare can never hit.
  Xoshiro256 rng(86);
  Codes a = random_codes(150, rng);
  Codes b = mutate(a, 0.03, rng);
  std::fill(a.begin() + 20, a.begin() + 30, seq::kN);
  std::fill(b.begin() + 25, b.begin() + 40, seq::kN);  // overlaps a's run
  std::fill(a.begin() + 70, a.begin() + 75, seq::kN);
  std::fill(b.begin() + 70, b.begin() + 75, seq::kN);  // N against N
  const Codes all_n(40, seq::kN);
  for (const std::int32_t x : {0, 10, 49}) {
    SCOPED_TRACE("x " + std::to_string(x));
    XDropParams params;
    params.x = x;
    expect_row_kernels_exact({{a, b}, {all_n, all_n}, {all_n, a}, {b, all_n}}, params);
  }
}

TEST(BatchAligner, RowKernelZeroXAndSteepGap) {
  Xoshiro256 rng(87);
  Pairs pairs;
  for (int t = 0; t < 6; ++t) {
    Codes a = random_codes(100 + rng.below(200), rng);
    Codes b = t % 2 == 0 ? mutate(a, 0.12, rng) : random_codes(100 + rng.below(200), rng);
    pairs.emplace_back(std::move(a), std::move(b));
  }
  for (const std::int32_t x : {0, 49}) {
    for (const std::int32_t gap : {-1, -3}) {
      SCOPED_TRACE("x " + std::to_string(x) + " gap " + std::to_string(gap));
      XDropParams params;
      params.x = x;
      params.scoring.gap = gap;
      expect_row_kernels_exact(pairs, params);
    }
  }
}

TEST(BatchAligner, RowKernelAtTheInt8Bound) {
  // At the largest x each int8 bound admits — 63 for 64 lanes at gap -1,
  // and 95, 63 and 31 for 32 lanes at gap -1, -2 and -3 — live cells reach
  // -x relative to their row's base, the deepest values int8 lanes hold
  // above the sentinel, and the scan constants reach W*gap: row 0 and
  // column 0 run down to the floor on a short read against a long one, an
  // insertion keeps a gap chain live one gap above the floor, and N runs sit
  // on both sides. Every case runs through every instantiation it fits.
  Xoshiro256 rng(88);
  for (const auto& [lanes, gap] : {std::pair{64, -1}, std::pair{32, -1}, std::pair{32, -2},
                                   std::pair{32, -3}}) {
    SCOPED_TRACE(std::to_string(lanes) + " lanes, gap " + std::to_string(gap));
    XDropParams params;
    params.scoring.gap = gap;
    params.x = (1 << 7) - 1 - lanes * -gap;
    ASSERT_TRUE(align::detail::fits_int8(params, lanes));
    const std::size_t reach = static_cast<std::size_t>(params.x / -gap);
    const Codes a = random_codes(300, rng);
    Codes b(a.begin(), a.begin() + 100);
    const Codes insert = random_codes(reach - 1, rng);
    b.insert(b.end(), insert.begin(), insert.end());
    b.insert(b.end(), a.begin() + 100, a.end());
    Codes a_n = mutate(a, 0.03, rng);
    Codes b_n = mutate(a, 0.03, rng);
    std::fill(a_n.begin() + 40, a_n.begin() + 70, seq::kN);
    std::fill(b_n.begin() + 50, b_n.begin() + 90, seq::kN);
    const Pairs pairs{{a, b},
                      {random_codes(40, rng), random_codes(reach + 40, rng)},
                      {random_codes(reach + 40, rng), random_codes(40, rng)},
                      {a_n, b_n}};
    const auto runs = expect_row_kernels_exact(pairs, params);
    EXPECT_EQ(ran_at(runs, static_cast<std::size_t>(lanes)),
              row_kernel(lanes == 64 ? "simd-avx512" : "simd-avx2").runnable());
  }
  // The steepest scoring 32 lanes admit: every score at m = 3, so 32*gap =
  // -96 in the scan constants, and the mismatch and up-gap constants reach
  // -3 - 3 after a rebase. Unrelated extensions die in their first chunk,
  // related ones soon after their first gap or mismatch.
  XDropParams steep;
  steep.scoring.match = 3;
  steep.scoring.mismatch = -3;
  steep.scoring.gap = -3;
  steep.x = 31;
  ASSERT_TRUE(align::detail::fits_int8(steep, 32));
  Pairs pairs;
  for (int t = 0; t < 6; ++t) {
    Codes seq_a = random_codes(50 + rng.below(200), rng);
    Codes seq_b = t % 2 == 0 ? random_codes(50 + rng.below(200), rng) : mutate(seq_a, 0.05, rng);
    pairs.emplace_back(std::move(seq_a), std::move(seq_b));
  }
  EXPECT_EQ(ran_at(expect_row_kernels_exact(pairs, steep), 32),
            row_kernel("simd-avx2").runnable());
}

TEST(BatchAligner, RowZeroCellAccountingMatchesScalar) {
  // Regression for the row-0 miscount: the first DP row's cells are counted
  // before the drop test, so a row-0 early exit still charges the evaluated
  // cells. A hostile pair (immediate mismatch wall, tiny x) terminates on
  // row 0/1 and the backends must still agree on `cells`.
  TaskBatch batch;
  Codes a(64, 0);  // all A
  Codes b(64, 3);  // all T
  for (std::uint32_t i = 0; i < 8; ++i) b[28 + i] = 0;
  batch.add(a, b, Seed{28, 28, 8, false});
  XDropParams params;
  params.x = 0;  // any drop terminates instantly
  const auto tasks = batch.tasks();
  const auto scalar = make_batch_aligner(proto::BatchAlignerKind::kScalar, params);
  const auto simd = make_batch_aligner(proto::BatchAlignerKind::kSimd, params);
  const auto base = scalar->align(tasks);
  expect_batches_equal(base, simd->align(tasks));
  // And both agree with the oracle path.
  const Alignment direct = xdrop_align(tasks[0].a, tasks[0].b, tasks[0].seed, params);
  EXPECT_EQ(base[0].score, direct.score);
  EXPECT_EQ(base[0].cells, direct.cells);
}
