// Unit and property tests for gnb_align: the X-drop kernel against exact
// DP oracles, scoring invariants, banded alignment and overlap
// classification.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

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
// lengths in one batch, row widths at 8- and 16-cell chunk edges, left-gap
// chains and best updates that cross chunks, the column-0 edge cell, N on
// both sides, scorings at the edge of the int16 bound — and the row-0 cell
// accounting both backends must share. The RowKernel* cases run both
// instantiations: the portable kernel's 8 int32 lanes directly, and the
// dispatched one, 16 int16 lanes where AVX2 runs and the scoring fits.

TEST(BatchAligner, EmptyBatchReturnsEmpty) {
  for (const auto kind : {proto::BatchAlignerKind::kScalar, proto::BatchAlignerKind::kSimd}) {
    const auto backend = make_batch_aligner(kind, {});
    EXPECT_TRUE(backend->align({}).empty());
    EXPECT_EQ(backend->stats().batches, 1u);  // an empty batch still counts
    EXPECT_EQ(backend->stats().tasks, 0u);
    EXPECT_EQ(backend->stats().cells, 0u);
  }
}

TEST(BatchAligner, InfoReportsRequestedBackend) {
  const auto scalar = make_batch_aligner(proto::BatchAlignerKind::kScalar, {});
  EXPECT_STREQ(scalar->info().name, "scalar");
  EXPECT_EQ(scalar->info().lanes, 1u);
  EXPECT_FALSE(scalar->info().simd);
  const auto simd = make_batch_aligner(proto::BatchAlignerKind::kSimd, {});
  EXPECT_TRUE(simd->info().simd);
  if (simd_compiled_in() && cpu_supports_avx2())
    EXPECT_STREQ(simd->info().name, "simd-avx2");
  else
    EXPECT_STREQ(simd->info().name, "simd-portable");
}

TEST(BatchAligner, SelectsWidestExactInstantiation) {
  // The AVX2 kernel's 16 int16 lanes whenever the scoring provably fits
  // (the default does), the portable kernel's 8 int32 lanes otherwise: at
  // x = 100 000, and one past the largest x the bound x + 16m < 2^14 admits,
  // m = max(|match|, |mismatch|, |gap|). Without AVX2 the portable kernel
  // runs at every scoring.
  const std::size_t widest = simd_compiled_in() && cpu_supports_avx2() ? 16 : 8;
  const auto lanes_at = [](const XDropParams& params) {
    const auto simd = make_batch_aligner(proto::BatchAlignerKind::kSimd, params);
    EXPECT_STREQ(simd->info().name, simd->info().lanes == 16 ? "simd-avx2" : "simd-portable");
    return simd->info().lanes;
  };
  EXPECT_EQ(lanes_at({}), widest);
  XDropParams unbanded;
  unbanded.x = 100'000;
  EXPECT_EQ(lanes_at(unbanded), 8u);
  for (const std::int32_t gap : {-1, -8}) {
    SCOPED_TRACE("gap " + std::to_string(gap));
    XDropParams edge;
    edge.scoring.gap = gap;
    edge.x = (1 << 14) - 1 - 16 * -gap;
    EXPECT_TRUE(align::detail::fits_int16(edge));
    EXPECT_EQ(lanes_at(edge), widest);
    ++edge.x;
    EXPECT_FALSE(align::detail::fits_int16(edge));
    EXPECT_EQ(lanes_at(edge), 8u);
  }
  XDropParams steep;
  steep.scoring.mismatch = -1000;
  steep.x = 383;  // 383 + 16 * 1000 = 2^14 - 1
  EXPECT_EQ(lanes_at(steep), widest);
  steep.scoring.match = 1001;
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

}  // namespace

TEST(BatchAligner, AllLanesEarlyTerminate) {
  // Every task is an unrelated pair: each lane's band collapses within a few
  // rows, exercising retire-and-refill on all lanes at once. Cell counts
  // must match the scalar kernel exactly (the early-termination rows are
  // where the old row-0 miscount lived).
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
}

TEST(BatchAligner, MixedLengthsRetireAndRefill) {
  // Lengths spanning two orders of magnitude in one batch: short lanes
  // retire and refill while long lanes keep extending, so lane lifetimes
  // interleave maximally. Identical sequences make every extension run to
  // its full length (no early termination hides a bookkeeping bug).
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

/// Run the portable row kernel directly on (a, b) pairs and compare every
/// Extension with xdrop_extend. The dispatcher picks AVX2 on capable hosts,
/// which would leave the portable instantiation untested exactly where CI
/// runs. Returns the kernel's stats.
BatchStats expect_portable_row_kernel_exact(const std::vector<std::pair<Codes, Codes>>& pairs,
                                            const XDropParams& params) {
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
  align::detail::extend_batch_portable(jobs, params, out, rows, stats);
  for (std::size_t t = 0; t < pairs.size(); ++t) {
    const Extension expected = xdrop_extend(pairs[t].first, pairs[t].second, params);
    EXPECT_EQ(out[t].score, expected.score) << "job " << t;
    EXPECT_EQ(out[t].a_len, expected.a_len) << "job " << t;
    EXPECT_EQ(out[t].b_len, expected.b_len) << "job " << t;
    EXPECT_EQ(out[t].cells, expected.cells) << "job " << t;
  }
  return stats;
}

/// Check (a, b) pairs through the `simd` backend (AVX2 int16 on capable
/// hosts when the scoring fits) and through the portable kernel against the
/// scalar oracle. Each pair is the rightward extension of one task and,
/// reversed, the leftward extension of another. Returns (lanes, stats) for
/// one run of each pair: the backend's first, then the portable kernel's.
std::vector<std::pair<std::size_t, BatchStats>> expect_row_kernels_exact(
    const std::vector<std::pair<Codes, Codes>>& pairs, const XDropParams& params) {
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
  // Every pair ran twice, as a leftward and as a rightward extension.
  BatchStats once = simd->stats();
  once.lane_steps /= 2;
  once.lane_steps_active /= 2;
  return {{simd->info().lanes, once},
          {8, expect_portable_row_kernel_exact(pairs, params)}};
}

}  // namespace

TEST(BatchAligner, PortableRowKernelMatchesScalar) {
  Xoshiro256 rng(81);
  std::vector<std::pair<Codes, Codes>> pairs;
  for (std::size_t t = 0; t < 19; ++t) {
    Codes seq_a = random_codes(40 + rng.below(400), rng);
    Codes seq_b = t % 3 == 0 ? random_codes(40 + rng.below(400), rng) : mutate(seq_a, 0.12, rng);
    pairs.emplace_back(std::move(seq_a), std::move(seq_b));
  }
  const BatchStats stats = expect_portable_row_kernel_exact(pairs, XDropParams{});
  EXPECT_EQ(stats.lane_steps % 8, 0u);
  EXPECT_GE(stats.lane_steps, stats.lane_steps_active);
  EXPECT_GT(stats.lane_steps_active, 0u);
}

TEST(BatchAligner, RowKernelChunkEdgeWidths) {
  // With x far above any score drop nothing is pruned, so every row after
  // row 0 spans all nb + 1 columns: b of length w - 1 pins the width at w.
  Xoshiro256 rng(82);
  XDropParams wide;
  wide.x = 1000;
  constexpr std::size_t kRows = 24;
  for (const std::size_t width : {7, 8, 9, 15, 16, 17, 31, 32, 33}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const std::vector<std::pair<Codes, Codes>> pairs{
        {random_codes(kRows, rng), random_codes(width - 1, rng)}};
    for (const auto& [lanes, stats] : expect_row_kernels_exact(pairs, wide)) {
      EXPECT_EQ(stats.lane_steps_active, kRows * width) << lanes << " lanes";
      EXPECT_EQ(stats.lane_steps, kRows * lanes * ((width + lanes - 1) / lanes))
          << lanes << " lanes";
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
  // 24 inserted bases in b: the best path runs 24 columns along one row,
  // a left-gap chain that crosses at least two 8-column chunk boundaries.
  Xoshiro256 rng(83);
  const Codes a = random_codes(200, rng);
  Codes b(a.begin(), a.begin() + 60);
  const Codes insert = random_codes(24, rng);
  b.insert(b.end(), insert.begin(), insert.end());
  b.insert(b.end(), a.begin() + 60, a.end());
  for (const std::int32_t gap : {-1, -3}) {
    SCOPED_TRACE("gap " + std::to_string(gap));
    XDropParams params;
    params.scoring.gap = gap;
    params.x = 24 * -gap + 8;  // the chain stays live
    expect_row_kernels_exact({{a, b}}, params);
    const Extension ext = xdrop_extend(a, b, params);
    EXPECT_EQ(ext.a_len, 200u);
    EXPECT_EQ(ext.b_len, 224u);
    EXPECT_EQ(ext.score, 200 + 24 * gap);
  }
}

TEST(BatchAligner, RowKernelBestImprovesInTwoChunks) {
  // With match = 2, unrelated reads and an unpruned band, some rows raise
  // the running best in one chunk and again in a later one. A plain full DP
  // confirms the case occurs among the pairs before comparing kernels.
  XDropParams params;
  params.x = 1000;
  params.scoring.match = 2;
  const Scoring sc = params.scoring;
  Xoshiro256 rng(84);
  std::vector<std::pair<Codes, Codes>> pairs;
  std::size_t rows_hit[2] = {0, 0};  // at 8- and 16-cell chunks
  for (int t = 0; t < 8; ++t) {
    Codes a = random_codes(60, rng);
    Codes b = random_codes(60, rng);
    std::vector<std::int32_t> prev(b.size() + 1), curr(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = static_cast<std::int32_t>(j) * sc.gap;
    std::int32_t best = 0;
    for (std::size_t i = 1; i <= a.size(); ++i) {
      curr[0] = static_cast<std::int32_t>(i) * sc.gap;
      for (std::size_t j = 1; j <= b.size(); ++j)
        curr[j] = std::max({prev[j - 1] + sc.substitution(a[i - 1], b[j - 1]),
                            prev[j] + sc.gap, curr[j - 1] + sc.gap});
      std::size_t first_col = SIZE_MAX, last_col = SIZE_MAX;
      for (std::size_t j = 0; j <= b.size(); ++j) {
        if (curr[j] <= best) continue;
        best = curr[j];
        if (first_col == SIZE_MAX) first_col = j;
        last_col = j;
      }
      if (first_col != SIZE_MAX) {
        rows_hit[0] += first_col / 8 != last_col / 8;
        rows_hit[1] += first_col / 16 != last_col / 16;
      }
      std::swap(prev, curr);
    }
    pairs.emplace_back(std::move(a), std::move(b));
  }
  EXPECT_GT(rows_hit[0], 0u);
  EXPECT_GT(rows_hit[1], 0u);
  expect_row_kernels_exact(pairs, params);
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
  std::vector<std::pair<Codes, Codes>> pairs;
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

TEST(BatchAligner, RowKernelAtTheInt16Bound) {
  // At the largest x the int16 bound admits, live cells reach -x relative
  // to their row's base, the deepest values int16 lanes hold, and the scan
  // constants reach 16*gap: row 0 and column 0 run down to the floor on a
  // short read against a long one, a long insertion keeps a gap chain live
  // near the floor, and N runs sit on both sides. Every case runs through
  // both widths.
  Xoshiro256 rng(88);
  for (const std::int32_t gap : {-1, -2, -4, -8}) {
    SCOPED_TRACE("gap " + std::to_string(gap));
    XDropParams params;
    params.scoring.gap = gap;
    params.x = (1 << 14) - 1 - 16 * -gap;
    ASSERT_TRUE(align::detail::fits_int16(params));
    const std::size_t reach = static_cast<std::size_t>(params.x / -gap);
    const Codes a = random_codes(300, rng);
    Codes b(a.begin(), a.begin() + 100);
    const Codes insert = random_codes(std::min<std::size_t>(reach - 20, 4000), rng);
    b.insert(b.end(), insert.begin(), insert.end());
    b.insert(b.end(), a.begin() + 100, a.end());
    Codes a_n = mutate(a, 0.03, rng);
    Codes b_n = mutate(a, 0.03, rng);
    std::fill(a_n.begin() + 40, a_n.begin() + 70, seq::kN);
    std::fill(b_n.begin() + 50, b_n.begin() + 90, seq::kN);
    expect_row_kernels_exact({{a, b},
                              {random_codes(40, rng), random_codes(reach + 40, rng)},
                              {random_codes(reach + 40, rng), random_codes(40, rng)},
                              {a_n, b_n}},
                             params);
  }
  // The steepest admitted scoring: 16*gap = -16000 in the scan constants.
  // Unrelated extensions die in their first chunk, related ones at their
  // first gap or mismatch.
  XDropParams steep;
  steep.scoring.mismatch = -1000;
  steep.scoring.gap = -1000;
  steep.x = 383;
  ASSERT_TRUE(align::detail::fits_int16(steep));
  std::vector<std::pair<Codes, Codes>> pairs;
  for (int t = 0; t < 6; ++t) {
    Codes seq_a = random_codes(50 + rng.below(200), rng);
    Codes seq_b = t % 2 == 0 ? random_codes(50 + rng.below(200), rng) : mutate(seq_a, 0.05, rng);
    pairs.emplace_back(std::move(seq_a), std::move(seq_b));
  }
  expect_row_kernels_exact(pairs, steep);
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
