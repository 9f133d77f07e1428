#pragma once
// Row-vectorized X-drop extension: the kernel behind align::SimdBatchAligner.
//
// The kernel runs one extension at a time and evaluates each DP row of
// xdrop_extend W cells per vector: 16 int16 cells in the AVX2 kernel, 8
// int32 cells in the portable one, which also serves scorings too wide for
// int16 (fits_int16). On long-read candidate sets the live band is wide:
// evaluated rows average 85 cells on 1.5 kb reads at 12 % error and 150
// cells on 12 kb reads at 3 %, so one extension's row fills a register.
//
// Storage: rows live in *offset space*. Slot s of a row holds column
// (row_lo + s - 1), where row_lo is the row's first evaluated column. Slot 0
// is a permanent sentinel (Ops::kNegInf), and at least W sentinel slots
// follow each row, so the vector loads at both band edges need no branch.
// Two ping-pong rows of nb + 2W + 1 slots serve an extension of any `a`
// length.
//
// Rebased rows: row i is stored relative to base(i), the running best at the
// start of row i. X-drop keeps every live cell of row i in
// [base(i) - x, base(i) + m], m = max(|match|, |mismatch|, |gap|), so the
// stored values stay small whatever the read length. The best grows by
// delta = base(i+1) - base(i), in [0, m], across row i; row i+1 reads row i
// rebased by -delta, which is folded into the broadcast match, mismatch and
// up-gap constants of the row, so a chunk costs no extra instruction. The
// absolute best stays a scalar int32.
//
// Per W-column chunk of row i (columns j .. j+W-1):
//   diag, up  two unaligned loads of the previous row (slots j - prev_lo and
//             j - prev_lo + 1);
//   sub       b[j-1 .. j+W-2] widened from bytes, compared with the broadcast
//             a[i-1] (-1 when that base is N, so N matches nothing);
//   t         max(diag + sub - delta, up + gap - delta);
//   s'        the left-gap chain as an in-register max-plus prefix scan in
//             log2(W) steps: y = max(y, shift_k(y) + k*gap) for
//             k = 1, .., W/4 within each half of the vector, one step that
//             carries the low half's last lane into the high half, then
//             max(y, carry + (lane+1)*gap) with the previous chunk's last
//             lane as carry (sentinel at row start).
// The column-0 cell needs no special case: it is evaluated only while the
// previous row's column 0 is live, which holds (i-1)*gap, so up + gap is the
// all-gap edge value i*gap, and its diag and carry sources are sentinels.
//
// Drop test against the running best: when no lane exceeds the best so far,
// every lane compares against the broadcast best - x. Otherwise a prefix max
// in the same steps gives the best before each lane; the new best is its
// last lane and best_j the first lane equal to it. Band bounds come from the
// live-lane byte mask.
//
// Why this is exact (bit-identical to xdrop_extend):
//   - xdrop_extend computes s[j] = max(t[j], stored[j-1] + gap), where a
//     dropped cell is stored as kNegInf. The scan computes
//     s'[j] = max(t[j], s'[j-1] + gap) instead.
//   - The two differ only right after a dropped cell. There, s'[j-1] is below
//     the drop threshold best - x of cell j-1, so s'[j-1] + gap is below cell
//     j's threshold too (gap <= 0, and best never decreases). If that term
//     wins, both s[j] and s'[j] are dropped and stored as the sentinel;
//     otherwise both equal t[j].
//   - A cell below best - x never updates the best, so testing against the
//     prefix max that includes cell j equals testing against the best before
//     cell j.
//   - Sentinel-derived values must always drop: a sentinel plus at most m
//     stays below -x. int32 adds wrap but never reach the limits; int16 adds
//     saturate, and a term that saturates is below -2^15 + m < -x exactly
//     when its exact value is, so it drops either way and a max it enters is
//     unchanged wherever the result is live.
//   - So stored rows, score, best position, band bounds and `cells` are
//     identical. This needs gap <= 0 and x >= 0; int32 needs x well below
//     2^29 (|kNegInf|), int16 needs fits_int16 (DESIGN.md §11).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "align/batch.hpp"
#include "align/xdrop.hpp"
#include "seq/alphabet.hpp"
#include "util/error.hpp"

namespace gnb::align::detail {

/// Pad bytes the kernel requires before b[0] and after b[nb-1]: it reads
/// b[j-1 .. j+W-2] for every chunk, so b[-1] through b[nb+14] at W = 16.
inline constexpr std::size_t kBPad = 16;

/// Whether the int16 instantiation is exact for `params`: with
/// m = max(|match|, |mismatch|, |gap|), x + 16m < 2^14 (DESIGN.md §11).
/// The default x = 49 at unit scoring gives 65.
inline bool fits_int16(const XDropParams& params) {
  const Scoring& sc = params.scoring;
  const std::int64_t m = std::max({std::abs(std::int64_t{sc.match}),
                                   std::abs(std::int64_t{sc.mismatch}),
                                   std::abs(std::int64_t{sc.gap})});
  return params.x >= 0 && params.x + 16 * m < (1 << 14);
}

/// One extension job. Both lengths are >= 1: callers resolve empty
/// extensions to a zero Extension directly. `b` carries kBPad readable bytes
/// on each side.
struct ExtJob {
  const std::uint8_t* a = nullptr;
  std::int32_t na = 0;
  const std::uint8_t* b = nullptr;
  std::int32_t nb = 0;
};

/// The kernel's two ping-pong rows of one lane type, owned by the caller,
/// grown on demand (slot 0 kept at the sentinel) and reused across calls.
template <class T>
struct RowPair {
  std::vector<T> a, b;
};
/// Row scratch for every instantiation; each uses the pair of its lane type.
using RowScratch = std::tuple<RowPair<std::int16_t>, RowPair<std::int32_t>>;

/// Reference vector ops, 8 int32 lanes: plain arrays, branch-free blends —
/// the semantics the AVX2 int16 ops match with saturating adds and
/// subtracts. Compiled in the baseline TU this is the portable kernel (the
/// compiler auto-vectorizes what it can).
struct ScalarLaneOps {
  using T = std::int32_t;
  static constexpr int W = 8;
  static constexpr T kNegInf = detail::kNegInf;
  struct V {
    T v[W];
  };

  static V broadcast(T x) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = x;
    return r;
  }
  static V load(const T* p) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = p[l];
    return r;
  }
  static void store(T* p, V x) {
    for (int l = 0; l < W; ++l) p[l] = x.v[l];
  }
  /// Zero-extend W bytes to lanes.
  static V widen_bytes(const std::uint8_t* p) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = p[l];
    return r;
  }
  static V add(V a, V b) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  static V sub(V a, V b) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
  }
  static V max(V a, V b) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
    return r;
  }
  static V cmpgt(V a, V b) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] > b.v[l] ? -1 : 0;
    return r;
  }
  static V cmpeq(V a, V b) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] == b.v[l] ? -1 : 0;
    return r;
  }
  /// Lane-wise select: mask lanes are all-ones or all-zeros.
  static V blend(V m, V a, V b) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = (m.v[l] & a.v[l]) | (~m.v[l] & b.v[l]);
    return r;
  }
  /// Within each half of W / 2 lanes, lane l takes a[l - kK]; the first kK
  /// lanes of each half take `fill`.
  template <int kK>
  static V shift_in_half(V a, V fill) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = l % (W / 2) < kK ? fill.v[l] : a.v[l - kK];
    return r;
  }
  /// Every lane takes the low half's last lane.
  static V broadcast_low_last(V a) { return broadcast(a.v[W / 2 - 1]); }
  static V broadcast_last(V a) { return broadcast(a.v[W - 1]); }
  static T last(V a) { return a.v[W - 1]; }
  static bool any(V m) {
    for (int l = 0; l < W; ++l)
      if (m.v[l] != 0) return true;
    return false;
  }
  /// Byte mask: lane l sets bits [4l, 4l + 4) when its sign bit is set, as a
  /// byte movemask does.
  static std::uint32_t movemask(V m) {
    std::uint32_t r = 0;
    for (int l = 0; l < W; ++l) r |= (m.v[l] < 0 ? 0xFu : 0u) << (4 * l);
    return r;
  }
};

/// One extension, row by row; bit-identical to xdrop_extend(a, b, params).
/// Adds W per issued chunk to stats.lane_steps and the evaluated cells to
/// stats.lane_steps_active, over rows >= 1.
template <class Ops>
Extension extend_rows(const ExtJob& job, const XDropParams& params,
                      RowPair<typename Ops::T>& rows, BatchStats& stats) {
  using T = typename Ops::T;
  using V = typename Ops::V;
  constexpr int W = Ops::W;
  constexpr int kHalf = W / 2;
  // log2(W) shift steps per scan: log2(W/2) within the halves, then one
  // across them.
  constexpr int kHalfSteps = std::countr_zero(static_cast<unsigned>(kHalf));
  static_assert(W * sizeof(T) == 32, "masks are one 32-bit byte mask per vector");
  const Scoring& sc = params.scoring;
  const std::int32_t x = params.x;
  const std::int32_t nb = job.nb;

  // Highest slot written: chunks*W + W <= (nb + 1 + W - 1) + W.
  const std::size_t cap = static_cast<std::size_t>(nb) + 2 * W + 1;
  if (rows.a.size() < cap) {
    rows.a.assign(cap, Ops::kNegInf);
    rows.b.assign(cap, Ops::kNegInf);
  }
  T* prev = rows.a.data();
  T* curr = rows.b.data();

  const auto lane = [](std::int32_t v) { return static_cast<T>(v); };
  const V vneginf = Ops::broadcast(Ops::kNegInf);
  const V vzero = Ops::broadcast(0);
  const V vx = Ops::broadcast(lane(x));
  const V vnegx = Ops::broadcast(lane(-x));
  V vgap_step[kHalfSteps];  // k*gap for the in-half shift by k = 2^s
  for (int s = 0; s < kHalfSteps; ++s) vgap_step[s] = Ops::broadcast(lane((1 << s) * sc.gap));
  // Per lane l: its index; (l+1)*gap for the carry; and what the cross-half
  // steps add to the low half's last lane: (l - W/2 + 1)*gap in the gap scan
  // and 0 in the prefix max on the high half, the sentinel on the low half,
  // which those steps must leave alone.
  T lane_ix[W], lane_gap[W], half_gap[W], half_zero[W];
  for (int l = 0; l < W; ++l) {
    lane_ix[l] = lane(l);
    lane_gap[l] = lane((l + 1) * sc.gap);
    half_gap[l] = l < kHalf ? Ops::kNegInf : lane((l - kHalf + 1) * sc.gap);
    half_zero[l] = l < kHalf ? Ops::kNegInf : T{0};
  }
  const V vlane = Ops::load(lane_ix);
  const V vlane_gap = Ops::load(lane_gap);
  const V vhalf_gap = Ops::load(half_gap);
  const V vhalf_zero = Ops::load(half_zero);

  Extension ext;
  std::int32_t best = 0, best_i = 0, best_j = 0;

  // Row 0: pure gaps in a, scalar, counting the cell whose drop ends it
  // exactly as xdrop_extend does. Its base is the initial best, 0.
  prev[1] = 0;  // column 0
  std::int32_t hi = 0;
  for (std::int32_t j = 1; j <= nb; ++j) {
    const std::int32_t s = j * sc.gap;
    ++ext.cells;
    if (s < best - x) break;
    prev[j + 1] = lane(s);
    hi = j;
  }
  Ops::store(prev + hi + 2, vneginf);
  const std::uint64_t row0_cells = ext.cells;
  std::int32_t lo = 0;
  std::int32_t prev_lo = 0;  // row_lo of the row in `prev`
  std::int32_t base = 0;     // best at the start of the row in `prev`

  std::uint64_t chunks_issued = 0;
  for (std::int32_t i = 1; i <= job.na; ++i) {
    const std::int32_t row_lo = lo;
    const std::int32_t count = std::min(hi + 1, nb) - row_lo + 1;
    const std::int32_t chunks = (count + W - 1) / W;
    ext.cells += static_cast<std::uint64_t>(count);
    chunks_issued += static_cast<std::uint64_t>(chunks);

    // Rebase: `prev` is relative to `base`, this row to `best`.
    const std::int32_t delta = base - best;
    base = best;
    const V vmatch = Ops::broadcast(lane(sc.match + delta));
    const V vmismatch = Ops::broadcast(lane(sc.mismatch + delta));
    const V vup_gap = Ops::broadcast(lane(sc.gap + delta));

    const T* src = prev + (row_lo - prev_lo);      // slot of column row_lo - 1
    const std::uint8_t* bj = job.b + row_lo - 1;  // b[j-1] of column row_lo
    const std::uint8_t ai = job.a[i - 1];
    const V va = Ops::broadcast(lane(ai == seq::kN ? -1 : ai));
    V vbest = vzero;  // running best - base
    V vfloor = vnegx;
    V vcarry = vneginf;
    std::int32_t new_lo = -1, new_hi = -1;

    for (std::int32_t off = 0; off < count; off += W) {
      const V vdiag = Ops::load(src + off);
      const V vup = Ops::load(src + off + 1);
      const V vsub = Ops::blend(Ops::cmpeq(Ops::widen_bytes(bj + off), va), vmatch, vmismatch);
      V y = Ops::max(Ops::add(vdiag, vsub), Ops::add(vup, vup_gap));
      [&]<int... kS>(std::integer_sequence<int, kS...>) {
        ((y = Ops::max(y, Ops::add(Ops::template shift_in_half<1 << kS>(y, vneginf),
                                   vgap_step[kS]))),
         ...);
      }(std::make_integer_sequence<int, kHalfSteps>{});
      y = Ops::max(y, Ops::add(Ops::broadcast_low_last(y), vhalf_gap));
      y = Ops::max(y, Ops::add(vcarry, vlane_gap));
      vcarry = Ops::broadcast_last(y);
      // Lanes past the row's last column drop (sentinels for the next row).
      if (count - off < W)
        y = Ops::blend(Ops::cmpgt(Ops::broadcast(lane(count - off)), vlane), y, vneginf);

      V vdropped;
      if (!Ops::any(Ops::cmpgt(y, vbest))) {
        vdropped = Ops::cmpgt(vfloor, y);
      } else {
        // Every lane of p is >= the running best >= 0, above anything the
        // sentinel half of vhalf_zero lets through.
        V p = Ops::max(y, vbest);
        [&]<int... kS>(std::integer_sequence<int, kS...>) {
          ((p = Ops::max(p, Ops::template shift_in_half<1 << kS>(p, vneginf))), ...);
        }(std::make_integer_sequence<int, kHalfSteps>{});
        p = Ops::max(p, Ops::add(Ops::broadcast_low_last(p), vhalf_zero));
        vdropped = Ops::cmpgt(Ops::sub(p, vx), y);
        const T rel_best = Ops::last(p);
        best = base + rel_best;
        best_i = i;
        vbest = Ops::broadcast(rel_best);
        vfloor = Ops::broadcast(lane(rel_best - x));
        best_j = row_lo + off +
                 std::countr_zero(Ops::movemask(Ops::cmpeq(y, vbest))) /
                     static_cast<std::int32_t>(sizeof(T));
      }
      const std::uint32_t live = ~Ops::movemask(vdropped);
      if (live != 0) {
        if (new_lo < 0)
          new_lo = row_lo + off + std::countr_zero(live) / static_cast<std::int32_t>(sizeof(T));
        new_hi = row_lo + off + (std::bit_width(live) - 1) / static_cast<std::int32_t>(sizeof(T));
      }
      Ops::store(curr + 1 + off, Ops::blend(vdropped, vneginf, y));
    }
    Ops::store(curr + 1 + chunks * W, vneginf);

    if (new_lo < 0) break;  // every cell dropped: early termination
    lo = new_lo;
    hi = new_hi;
    prev_lo = row_lo;
    std::swap(prev, curr);
  }
  stats.lane_steps += chunks_issued * W;
  stats.lane_steps_active += ext.cells - row0_cells;

  ext.score = best;
  ext.a_len = static_cast<std::uint32_t>(best_i);
  ext.b_len = static_cast<std::uint32_t>(best_j);
  return ext;
}

/// Run every job in turn; out[i] receives job i's Extension.
template <class Ops>
void extend_batch(std::span<const ExtJob> jobs, const XDropParams& params,
                  std::span<Extension> out, RowScratch& scratch, BatchStats& stats) {
  GNB_CHECK_MSG(params.x >= 0, "X-drop threshold must be non-negative");
  if constexpr (sizeof(typename Ops::T) == 2)
    GNB_CHECK_MSG(fits_int16(params), "scoring too wide for the int16 row kernel: x "
                                          << params.x << ", match " << params.scoring.match
                                          << ", mismatch " << params.scoring.mismatch
                                          << ", gap " << params.scoring.gap);
  auto& rows = std::get<RowPair<typename Ops::T>>(scratch);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    out[i] = extend_rows<Ops>(jobs[i], params, rows, stats);
}

/// Signature of an instantiated row kernel (one per ISA translation unit and
/// lane type).
using ExtendBatchFn = void (*)(std::span<const ExtJob>, const XDropParams&,
                               std::span<Extension>, RowScratch&, BatchStats&);

/// Baseline-ISA instantiation (ScalarLaneOps, 8 int32 lanes), exact for any
/// scoring. There is no portable int16 one: compiled for baseline x86-64 it
/// ran at half the portable int32 kernel's speed (EXPERIMENTS.md).
void extend_batch_portable(std::span<const ExtJob> jobs, const XDropParams& params,
                           std::span<Extension> out, RowScratch& scratch, BatchStats& stats);

/// AVX2 instantiation (16 int16 cells per ymm register), exact where
/// fits_int16(params) holds; present only when the GNB_SIMD build option
/// compiled the -mavx2 translation unit (align::simd_compiled_in()).
void extend_batch_avx2_i16(std::span<const ExtJob> jobs, const XDropParams& params,
                           std::span<Extension> out, RowScratch& scratch, BatchStats& stats);

}  // namespace gnb::align::detail
