#pragma once
// Row-vectorized X-drop extension: the kernel behind align::SimdBatchAligner.
//
// The kernel runs one extension at a time and evaluates each DP row of
// xdrop_extend W cells per vector: 64 int8 cells in the AVX-512 kernel, 32
// in the AVX2 kernel, 8 int32 cells in the portable one, which also serves
// scorings too wide for int8 (fits_int8). On long-read candidate sets the
// live band is wide: evaluated rows average 85 cells on 1.5 kb reads at 12 %
// error and 150 cells on 12 kb reads at 3 %, so one extension's row fills a
// register. One template, extend_rows<Ops>, serves every width.
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
//   sub       b[j-1 .. j+W-2] loaded as lanes (int8 lanes are the bytes
//             themselves), compared with the broadcast a[i-1] (-1 when that
//             base is N, so N matches nothing);
//   t         max(diag + sub - delta, up + gap - delta);
//   s'        the left-gap chain, max over k <= l of t[k] + (l-k)*gap,
//             computed as an in-register prefix max of z[k] = t[k] - k*gap,
//             then s'[l] = z'[l] + l*gap. The prefix max takes log2(W)
//             steps over blocks of Ops::kBlock lanes (one 128-bit block):
//             z = max(z, shift_k(z)) for k = 1, 2, .., kBlock/2 within each
//             block, then for d = 1, 2, .., W/(2 kBlock) blocks every block
//             takes the max with the last lane of the block d below it.
//             Last, max(s', carry + (l+1)*gap) with the previous chunk's
//             last lane as carry (sentinel at row start).
// The column-0 cell needs no special case: it is evaluated only while the
// previous row's column 0 is live, which holds (i-1)*gap, so up + gap is the
// all-gap edge value i*gap, and its diag and carry sources are sentinels.
//
// Drop test against the running best: when no lane exceeds the best so far,
// every lane compares against the broadcast best - x. Otherwise a prefix max
// in the same steps gives the best before each lane; the new best is its
// last lane and best_j the first lane equal to it. Band bounds come from the
// live-lane mask, one bit per lane.
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
//     stays below -x. int32 adds wrap but never reach the limits; int8 adds
//     saturate, but only terms whose exact value is below -2^7 < -x do, so
//     such a term drops either way and a max it enters is unchanged (every
//     lane is >= -2^7). z = t - l*gap is at most W*m < 2^7 and never
//     saturates; shifting back saturates only below -2^7.
//   - So stored rows, score, best position, band bounds and `cells` are
//     identical. This needs gap <= 0 and x >= 0; int32 needs x well below
//     2^29 (|kNegInf|), int8 needs fits_int8 at the kernel's W (DESIGN.md
//     §11).
//
// Each instantiation with an ISA beyond the baseline lives in a translation
// unit compiled for that ISA, and the CPU may lack it. So the kernel
// instantiates nothing with external linkage there: its Ops types are
// TU-local, and the growth of the row scratch and the parameter check run
// in baseline code (xdrop_batch_portable.cpp).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "align/batch.hpp"
#include "align/xdrop.hpp"
#include "seq/alphabet.hpp"

namespace gnb::align::detail {

/// Pad bytes the kernel requires before b[0] and after b[nb-1]: it reads
/// b[j-1 .. j+W-2] for every chunk, so b[-1] through b[nb+62] at W = 64.
inline constexpr std::size_t kBPad = 64;

/// Whether an int8 instantiation of `lanes` lanes is exact for `params`:
/// with m = max(|match|, |mismatch|, |gap|), x + lanes*m < 2^7 (DESIGN.md
/// §11). The default x = 49 at unit scoring gives 81 at 32 lanes and 113 at
/// 64.
[[nodiscard]] bool fits_int8(const XDropParams& params, int lanes);

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
using RowScratch = std::tuple<RowPair<std::int8_t>, RowPair<std::int32_t>>;

/// Refill both rows of `rows` with `cap` sentinels (instantiated for int8
/// and int32 in the baseline TU).
template <class T>
void grow_rows(RowPair<T>& rows, std::size_t cap, T sentinel);

/// Throw unless x >= 0 and, for an int8 kernel of `int8_lanes` lanes (0 for
/// an int32 one), fits_int8(params, int8_lanes).
void check_row_kernel_params(const XDropParams& params, int int8_lanes);

/// Reference vector ops, 8 int32 lanes: plain arrays and lane-wise selects —
/// the semantics the AVX int8 ops match with saturating adds and
/// subtracts. Compiled in the baseline TU this is the portable kernel (the
/// compiler auto-vectorizes what it can).
struct ScalarLaneOps {
  using T = std::int32_t;
  static constexpr int W = 8;
  static constexpr int kBlock = 4;  // int32 lanes per 128-bit block
  static constexpr T kNegInf = detail::kNegInf;
  struct V {
    T v[W];
  };
  using Mask = V;  // all-ones or all-zeros lanes

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
  /// W bytes as lanes, zero-extended to the lane width.
  static V load_bytes(const std::uint8_t* p) {
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
  static Mask cmpgt(V a, V b) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] > b.v[l] ? -1 : 0;
    return r;
  }
  static Mask cmpeq(V a, V b) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = a.v[l] == b.v[l] ? -1 : 0;
    return r;
  }
  /// Lane-wise select: `a` where `m` is set, `b` elsewhere.
  static V blend(Mask m, V a, V b) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = m.v[l] != 0 ? a.v[l] : b.v[l];
    return r;
  }
  /// Within each block, lane l takes a[l - kK]; the first kK lanes of each
  /// block take `fill`.
  template <int kK>
  static V shift_in_block(V a, V fill) {
    V r;
    for (int l = 0; l < W; ++l) r.v[l] = l % kBlock < kK ? fill.v[l] : a.v[l - kK];
    return r;
  }
  /// Every lane of block b >= 2^kS takes the last lane of block b - 2^kS;
  /// the lanes of the lower blocks keep their own value.
  template <int kS>
  static V from_block_below(V a) {
    constexpr int kDist = kBlock << kS;
    V r;
    for (int l = 0; l < W; ++l)
      r.v[l] = l < kDist ? a.v[l] : a.v[(l / kBlock) * kBlock - kDist + kBlock - 1];
    return r;
  }
  static V broadcast_last(V a) { return broadcast(a.v[W - 1]); }
  static T first(V a) { return a.v[0]; }
  static bool any(Mask m) {
    for (int l = 0; l < W; ++l)
      if (m.v[l] != 0) return true;
    return false;
  }
  /// One bit per lane, set where the lane's mask is set.
  static std::uint64_t movemask(Mask m) {
    std::uint64_t r = 0;
    for (int l = 0; l < W; ++l) r |= (m.v[l] < 0 ? std::uint64_t{1} : 0) << l;
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
  constexpr int kBlock = Ops::kBlock;
  // log2(W) steps per prefix max: log2(kBlock) within the blocks, then
  // log2(W / kBlock) across them.
  constexpr int kBlockSteps = std::countr_zero(static_cast<unsigned>(kBlock));
  constexpr int kCrossSteps = std::countr_zero(static_cast<unsigned>(W / kBlock));
  static_assert(std::has_single_bit(static_cast<unsigned>(kBlock)) && W % kBlock == 0 &&
                    std::has_single_bit(static_cast<unsigned>(W / kBlock)) && W <= 64,
                "W is a power of two of whole blocks, one mask bit per lane");
  constexpr std::uint64_t kAllLanes = W == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << W) - 1;
  const Scoring& sc = params.scoring;
  const std::int32_t x = params.x;
  const std::int32_t nb = job.nb;

  // Highest slot written: chunks*W + W <= (nb + 1 + W - 1) + W.
  const std::size_t cap = static_cast<std::size_t>(nb) + 2 * W + 1;
  if (rows.a.size() < cap) grow_rows(rows, cap, Ops::kNegInf);
  T* prev = rows.a.data();
  T* curr = rows.b.data();

  const auto lane = [](std::int32_t v) { return static_cast<T>(v); };
  const V vneginf = Ops::broadcast(Ops::kNegInf);
  const V vzero = Ops::broadcast(0);
  const V vx = Ops::broadcast(lane(x));
  const V vnegx = Ops::broadcast(lane(-x));
  // Per lane l: its index, the gap back to lane 0 (-l*gap, which takes the
  // left-gap chain to prefix-max space) and (l+1)*gap for the carry.
  T lane_ix[W], lane_back[W], lane_gap[W];
  for (int l = 0; l < W; ++l) {
    lane_ix[l] = lane(l);
    lane_back[l] = lane(-l * sc.gap);
    lane_gap[l] = lane((l + 1) * sc.gap);
  }
  const V vlane = Ops::load(lane_ix);
  const V vlane_back = Ops::load(lane_back);
  const V vlane_gap = Ops::load(lane_gap);
  // Lane l becomes the max of lanes 0..l in log2(W) shift steps.
  const auto prefix_max = [&](V v) {
    [&]<int... kS>(std::integer_sequence<int, kS...>) {
      ((v = Ops::max(v, Ops::template shift_in_block<1 << kS>(v, vneginf))), ...);
    }(std::make_integer_sequence<int, kBlockSteps>{});
    [&]<int... kS>(std::integer_sequence<int, kS...>) {
      ((v = Ops::max(v, Ops::template from_block_below<kS>(v))), ...);
    }(std::make_integer_sequence<int, kCrossSteps>{});
    return v;
  };

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
      const V vsub = Ops::blend(Ops::cmpeq(Ops::load_bytes(bj + off), va), vmatch, vmismatch);
      V y = Ops::max(Ops::add(vdiag, vsub), Ops::add(vup, vup_gap));
      // The left-gap chain, max over k <= l of y[k] + (l-k)*gap, is a
      // prefix max of y[k] - k*gap, shifted back by l*gap.
      y = Ops::sub(prefix_max(Ops::add(y, vlane_back)), vlane_back);
      y = Ops::max(y, Ops::add(vcarry, vlane_gap));
      vcarry = Ops::broadcast_last(y);
      // Lanes past the row's last column drop (sentinels for the next row).
      if (count - off < W)
        y = Ops::blend(Ops::cmpgt(Ops::broadcast(lane(count - off)), vlane), y, vneginf);

      typename Ops::Mask dropped;
      if (!Ops::any(Ops::cmpgt(y, vbest))) {
        dropped = Ops::cmpgt(vfloor, y);
      } else {
        const V p = prefix_max(Ops::max(y, vbest));
        dropped = Ops::cmpgt(Ops::sub(p, vx), y);
        vbest = Ops::broadcast_last(p);
        vfloor = Ops::sub(vbest, vx);
        best = base + Ops::first(vbest);
        best_i = i;
        best_j = row_lo + off + std::countr_zero(Ops::movemask(Ops::cmpeq(y, vbest)));
      }
      const std::uint64_t live = ~Ops::movemask(dropped) & kAllLanes;
      if (live != 0) {
        if (new_lo < 0) new_lo = row_lo + off + std::countr_zero(live);
        new_hi = row_lo + off + static_cast<std::int32_t>(std::bit_width(live)) - 1;
      }
      Ops::store(curr + 1 + off, Ops::blend(dropped, vneginf, y));
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
  check_row_kernel_params(params, sizeof(typename Ops::T) == 1 ? Ops::W : 0);
  auto& rows = std::get<RowPair<typename Ops::T>>(scratch);
  for (std::size_t i = 0; i < jobs.size(); ++i)
    out[i] = extend_rows<Ops>(jobs[i], params, rows, stats);
}

/// Signature of an instantiated row kernel (one per ISA translation unit and
/// lane type).
using ExtendBatchFn = void (*)(std::span<const ExtJob>, const XDropParams&,
                               std::span<Extension>, RowScratch&, BatchStats&);

/// Baseline-ISA instantiation (ScalarLaneOps, 8 int32 lanes), exact for any
/// scoring. There is no portable narrow-lane one: a portable int16 kernel
/// compiled for baseline x86-64 ran at half the portable int32 kernel's
/// speed (EXPERIMENTS.md).
void extend_batch_portable(std::span<const ExtJob> jobs, const XDropParams& params,
                           std::span<Extension> out, RowScratch& scratch, BatchStats& stats);

/// AVX2 instantiation (32 int8 cells per ymm register), exact where
/// fits_int8(params, 32) holds; present only when the GNB_SIMD build option
/// compiled the -mavx2 translation unit.
void extend_batch_avx2_i8(std::span<const ExtJob> jobs, const XDropParams& params,
                          std::span<Extension> out, RowScratch& scratch, BatchStats& stats);

/// AVX-512 instantiation (64 int8 cells per zmm register, AVX512BW and
/// VBMI), exact where fits_int8(params, 64) holds; present only when the
/// GNB_SIMD build option compiled its translation unit.
void extend_batch_avx512_i8(std::span<const ExtJob> jobs, const XDropParams& params,
                            std::span<Extension> out, RowScratch& scratch, BatchStats& stats);

/// One compiled-in instantiation of the row kernel, as make_batch_aligner
/// dispatches to it.
struct RowKernel {
  const char* name;          // BatchAlignerInfo::name
  std::uint64_t backend_id;  // BatchAlignerInfo::backend_id
  int lanes;                 // DP cells per vector
  bool int8;                 // int8 lanes: exact only where fits_int8(params, lanes)
  ExtendBatchFn run;         // nullptr when the binary lacks its translation unit
  bool (*cpu_runs)();        // whether the host CPU executes its ISA

  /// Whether this binary carries it and the host CPU executes it.
  [[nodiscard]] bool runnable() const { return run != nullptr && cpu_runs(); }
  /// Whether it is bit-identical to xdrop_extend under `params`.
  [[nodiscard]] bool exact_for(const XDropParams& params) const {
    return !int8 || fits_int8(params, lanes);
  }
};

/// Every instantiation, widest first; the portable one is last and always
/// runnable.
[[nodiscard]] std::span<const RowKernel> row_kernels();

/// A `simd` backend running `kernel`, which must be runnable and exact for
/// `params`: make_batch_aligner's choice, or another instantiation that
/// bench_kernels times beside it.
[[nodiscard]] std::unique_ptr<BatchAligner> make_row_kernel_aligner(const RowKernel& kernel,
                                                                    const XDropParams& params);

}  // namespace gnb::align::detail
