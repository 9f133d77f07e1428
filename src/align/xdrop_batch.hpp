#pragma once
// Row-vectorized X-drop extension: the kernel behind align::SimdBatchAligner.
//
// The kernel runs one extension at a time and evaluates each DP row of
// xdrop_extend eight int32 cells per vector. On long-read candidate sets the
// live band is wide: evaluated rows average 85 cells on 1.5 kb reads at 12 %
// error and 150 cells on 12 kb reads at 3 %, and about 1 % of cells sit in
// rows narrower than 33. So one extension's row fills a register, which eight
// extensions striped in lockstep do not: their band widths differ row by row.
//
// Storage: rows live in *offset space*. Slot s of a row holds column
// (row_lo + s - 1), where row_lo is the row's first evaluated column. Slot 0
// is a permanent kNegInf sentinel, and at least 8 kNegInf slots follow each
// row, so the vector loads at both band edges need no branch. Two ping-pong
// rows of nb + 17 slots serve an extension of any `a` length.
//
// Per 8-column chunk of row i (columns j .. j+7):
//   diag, up  two unaligned loads of the previous row (slots j - prev_lo and
//             j - prev_lo + 1);
//   sub       b[j-1 .. j+6] widened from bytes, compared with the broadcast
//             a[i-1] (-1 when that base is N, so N matches nothing);
//   t         max(diag + sub, up + gap);
//   s'        the left-gap chain as an in-register max-plus prefix scan,
//             y = max(y, shift_in_k(y) + k*gap) for k = 1, 2, 4, then
//             max(y, carry + (lane+1)*gap) with the previous chunk's last
//             lane as carry (kNegInf at row start).
// The column-0 cell needs no special case: it is evaluated only while the
// previous row's column 0 is live, which holds (i-1)*gap, so up + gap is the
// all-gap edge value i*gap, and its diag and carry sources are sentinels.
//
// Drop test against the running best: when no lane exceeds the best so far,
// every lane compares against the broadcast best - x. Otherwise a prefix max
// gives the best before each lane; the new best is its last lane and best_j
// the first lane equal to it. Band bounds come from the live-lane bitmask.
//
// Why this is exact (bit-identical to xdrop_extend):
//   - xdrop_extend computes s[j] = max(t[j], stored[j-1] + gap), where a
//     dropped cell is stored as kNegInf. The scan computes
//     s'[j] = max(t[j], s'[j-1] + gap) instead.
//   - The two differ only right after a dropped cell. There, s'[j-1] is below
//     the drop threshold best - x of cell j-1, so s'[j-1] + gap is below cell
//     j's threshold too (gap <= 0, and best never decreases). If that term
//     wins, both s[j] and s'[j] are dropped and stored as kNegInf; otherwise
//     both equal t[j].
//   - A cell below best - x never updates the best, so testing against the
//     prefix max that includes cell j equals testing against the best before
//     cell j.
//   - So stored rows, score, best position, band bounds and `cells` are
//     identical. This needs gap <= 0 and x >= 0, and x well below -kNegInf
//     (2^29), so that values derived from sentinels always drop.
// All arithmetic is exact int32; there is nothing to round.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "align/batch.hpp"
#include "align/xdrop.hpp"
#include "seq/alphabet.hpp"
#include "util/error.hpp"

namespace gnb::align::detail {

/// Pad bytes the kernel requires before b[0] and after b[nb-1]: it reads
/// b[j-1 .. j+6] for every chunk, so b[-1] through b[nb+6].
inline constexpr std::size_t kBPad = 8;

/// One extension job. Both lengths are >= 1: callers resolve empty
/// extensions to a zero Extension directly. `b` carries kBPad readable bytes
/// on each side.
struct ExtJob {
  const std::uint8_t* a = nullptr;
  std::int32_t na = 0;
  const std::uint8_t* b = nullptr;
  std::int32_t nb = 0;
};

/// Reference vector ops: plain arrays, branch-free blends — the semantics
/// the AVX2 ops must match exactly. Compiled in the baseline TU this is the
/// portable kernel (the compiler auto-vectorizes what it can).
template <int kW>
struct ScalarLaneOps {
  static constexpr int W = kW;
  struct V {
    std::int32_t v[kW];
  };

  static V broadcast(std::int32_t x) {
    V r;
    for (int l = 0; l < kW; ++l) r.v[l] = x;
    return r;
  }
  static V load(const std::int32_t* p) {
    V r;
    for (int l = 0; l < kW; ++l) r.v[l] = p[l];
    return r;
  }
  static void store(std::int32_t* p, V x) {
    for (int l = 0; l < kW; ++l) p[l] = x.v[l];
  }
  /// Zero-extend kW bytes to int32 lanes.
  static V widen_bytes(const std::uint8_t* p) {
    V r;
    for (int l = 0; l < kW; ++l) r.v[l] = p[l];
    return r;
  }
  static V add(V a, V b) {
    V r;
    for (int l = 0; l < kW; ++l) r.v[l] = a.v[l] + b.v[l];
    return r;
  }
  static V sub(V a, V b) {
    V r;
    for (int l = 0; l < kW; ++l) r.v[l] = a.v[l] - b.v[l];
    return r;
  }
  static V max(V a, V b) {
    V r;
    for (int l = 0; l < kW; ++l) r.v[l] = a.v[l] > b.v[l] ? a.v[l] : b.v[l];
    return r;
  }
  static V cmpgt(V a, V b) {
    V r;
    for (int l = 0; l < kW; ++l) r.v[l] = a.v[l] > b.v[l] ? -1 : 0;
    return r;
  }
  static V cmpeq(V a, V b) {
    V r;
    for (int l = 0; l < kW; ++l) r.v[l] = a.v[l] == b.v[l] ? -1 : 0;
    return r;
  }
  /// Lane-wise select: mask lanes are all-ones or all-zeros.
  static V blend(V m, V a, V b) {
    V r;
    for (int l = 0; l < kW; ++l) r.v[l] = (m.v[l] & a.v[l]) | (~m.v[l] & b.v[l]);
    return r;
  }
  /// Lane l takes a[l - kK]; the first kK lanes take `fill`.
  template <int kK>
  static V shift_in(V a, V fill) {
    V r;
    for (int l = 0; l < kW; ++l) r.v[l] = l < kK ? fill.v[l] : a.v[l - kK];
    return r;
  }
  static V broadcast_last(V a) { return broadcast(a.v[kW - 1]); }
  static std::int32_t last(V a) { return a.v[kW - 1]; }
  static bool any(V m) {
    for (int l = 0; l < kW; ++l)
      if (m.v[l] != 0) return true;
    return false;
  }
  static int movemask(V m) {
    int r = 0;
    for (int l = 0; l < kW; ++l) r |= (m.v[l] < 0 ? 1 : 0) << l;
    return r;
  }
};

/// One extension, row by row; bit-identical to xdrop_extend(a, b, params).
/// `row_a`/`row_b` are the caller-owned ping-pong rows (grown on demand,
/// slot 0 kept at kNegInf). Adds 8 per issued chunk to stats.lane_steps and
/// the evaluated cells to stats.lane_steps_active, over rows >= 1.
template <class Ops>
Extension extend_rows(const ExtJob& job, const XDropParams& params,
                      std::vector<std::int32_t>& row_a, std::vector<std::int32_t>& row_b,
                      BatchStats& stats) {
  constexpr int W = Ops::W;
  static_assert(W == 8, "the left-gap scan shifts by 1, 2 and 4 lanes");
  using V = typename Ops::V;
  const Scoring& sc = params.scoring;
  const std::int32_t x = params.x;
  const std::int32_t nb = job.nb;

  // Highest slot written: chunks*8 + 8 <= (nb + 1 + 7) + 8.
  const std::size_t cap = static_cast<std::size_t>(nb) + 2 * W + 1;
  if (row_a.size() < cap) {
    row_a.assign(cap, kNegInf);
    row_b.assign(cap, kNegInf);
  }
  std::int32_t* prev = row_a.data();
  std::int32_t* curr = row_b.data();

  const V vneginf = Ops::broadcast(kNegInf);
  const V vgap = Ops::broadcast(sc.gap);
  const V vgap2 = Ops::broadcast(2 * sc.gap);
  const V vgap4 = Ops::broadcast(4 * sc.gap);
  const V vmatch = Ops::broadcast(sc.match);
  const V vmismatch = Ops::broadcast(sc.mismatch);
  const V vx = Ops::broadcast(x);
  std::int32_t lane_ix[W], lane_gap[W];
  for (int l = 0; l < W; ++l) {
    lane_ix[l] = l;
    lane_gap[l] = (l + 1) * sc.gap;
  }
  const V vlane = Ops::load(lane_ix);
  const V vlane_gap = Ops::load(lane_gap);

  Extension ext;
  std::int32_t best = 0, best_i = 0, best_j = 0;

  // Row 0: pure gaps in a, scalar, counting the cell whose drop ends it
  // exactly as xdrop_extend does.
  prev[1] = 0;  // column 0
  std::int32_t hi = 0;
  for (std::int32_t j = 1; j <= nb; ++j) {
    const std::int32_t s = j * sc.gap;
    ++ext.cells;
    if (s < best - x) break;
    prev[j + 1] = s;
    hi = j;
  }
  Ops::store(prev + hi + 2, vneginf);
  const std::uint64_t row0_cells = ext.cells;
  std::int32_t lo = 0;
  std::int32_t prev_lo = 0;  // row_lo of the row in `prev`

  std::uint64_t chunks_issued = 0;
  for (std::int32_t i = 1; i <= job.na; ++i) {
    const std::int32_t row_lo = lo;
    const std::int32_t count = std::min(hi + 1, nb) - row_lo + 1;
    const std::int32_t chunks = (count + W - 1) / W;
    ext.cells += static_cast<std::uint64_t>(count);
    chunks_issued += static_cast<std::uint64_t>(chunks);

    const std::int32_t* src = prev + (row_lo - prev_lo);  // slot of column row_lo - 1
    const std::uint8_t* bj = job.b + row_lo - 1;          // b[j-1] of column row_lo
    const std::uint8_t ai = job.a[i - 1];
    const V va = Ops::broadcast(ai == seq::kN ? -1 : ai);
    V vbest = Ops::broadcast(best);
    V vfloor = Ops::broadcast(best - x);
    V vcarry = vneginf;
    std::int32_t new_lo = -1, new_hi = -1;

    for (std::int32_t off = 0; off < count; off += W) {
      const V vdiag = Ops::load(src + off);
      const V vup = Ops::load(src + off + 1);
      const V vsub = Ops::blend(Ops::cmpeq(Ops::widen_bytes(bj + off), va), vmatch, vmismatch);
      V y = Ops::max(Ops::add(vdiag, vsub), Ops::add(vup, vgap));
      y = Ops::max(y, Ops::add(Ops::template shift_in<1>(y, vneginf), vgap));
      y = Ops::max(y, Ops::add(Ops::template shift_in<2>(y, vneginf), vgap2));
      y = Ops::max(y, Ops::add(Ops::template shift_in<4>(y, vneginf), vgap4));
      y = Ops::max(y, Ops::add(vcarry, vlane_gap));
      vcarry = Ops::broadcast_last(y);
      // Lanes past the row's last column drop (sentinels for the next row).
      if (count - off < W)
        y = Ops::blend(Ops::cmpgt(Ops::broadcast(count - off), vlane), y, vneginf);

      V vdropped;
      if (!Ops::any(Ops::cmpgt(y, vbest))) {
        vdropped = Ops::cmpgt(vfloor, y);
      } else {
        V p = Ops::max(y, Ops::template shift_in<1>(y, vneginf));
        p = Ops::max(p, Ops::template shift_in<2>(p, vneginf));
        p = Ops::max(p, Ops::template shift_in<4>(p, vneginf));
        p = Ops::max(p, vbest);
        vdropped = Ops::cmpgt(Ops::sub(p, vx), y);
        best = Ops::last(p);
        best_i = i;
        best_j = row_lo + off +
                 std::countr_zero(static_cast<unsigned>(
                     Ops::movemask(Ops::cmpeq(y, Ops::broadcast(best)))));
        vbest = Ops::broadcast(best);
        vfloor = Ops::broadcast(best - x);
      }
      const unsigned live = ~static_cast<unsigned>(Ops::movemask(vdropped)) & 0xFFu;
      if (live != 0) {
        if (new_lo < 0) new_lo = row_lo + off + std::countr_zero(live);
        new_hi = row_lo + off + std::bit_width(live) - 1;
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
                  std::span<Extension> out, std::vector<std::int32_t>& row_a,
                  std::vector<std::int32_t>& row_b, BatchStats& stats) {
  GNB_CHECK_MSG(params.x >= 0, "X-drop threshold must be non-negative");
  for (std::size_t i = 0; i < jobs.size(); ++i)
    out[i] = extend_rows<Ops>(jobs[i], params, row_a, row_b, stats);
}

/// Signature of an instantiated row kernel (one per ISA translation unit).
using ExtendBatchFn = void (*)(std::span<const ExtJob>, const XDropParams&,
                               std::span<Extension>, std::vector<std::int32_t>&,
                               std::vector<std::int32_t>&, BatchStats&);

/// Baseline-ISA instantiation (ScalarLaneOps<8>).
void extend_batch_portable(std::span<const ExtJob> jobs, const XDropParams& params,
                           std::span<Extension> out, std::vector<std::int32_t>& row_a,
                           std::vector<std::int32_t>& row_b, BatchStats& stats);

/// AVX2 instantiation; present only when the GNB_SIMD build option compiled
/// the -mavx2 translation unit (align::simd_compiled_in()).
void extend_batch_avx2(std::span<const ExtJob> jobs, const XDropParams& params,
                       std::span<Extension> out, std::vector<std::int32_t>& row_a,
                       std::vector<std::int32_t>& row_b, BatchStats& stats);

}  // namespace gnb::align::detail
