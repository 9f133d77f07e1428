#pragma once
// X-drop seed-and-extend pairwise alignment (Zhang, Schwartz, Wagner,
// Miller 2000) — the kernel the paper invokes from SeqAn for every
// alignment task.
//
// The extension DP is banded adaptively: a cell is abandoned once its score
// falls more than X below the best score seen so far, and a row's live
// interval shrinks accordingly. On unrelated sequence (false-positive
// candidates) the band collapses within a few rows — this is the
// "early-termination heuristic" that makes task costs so variable (§2, §4.2).
// On true overlaps the band stays narrow (proportional to the error rate),
// giving average-case O(n) behaviour.

#include <cstdint>
#include <limits>
#include <span>

#include "align/result.hpp"
#include "align/scoring.hpp"
#include "seq/sequence.hpp"

namespace gnb::align {

struct XDropParams {
  std::int32_t x = 49;  // drop threshold (BELLA's default magnitude)
  Scoring scoring = kDefaultScoring;
};

/// Result of a one-directional gapped X-drop extension.
struct Extension {
  std::int32_t score = 0;    // best extension score (>= 0; 0 = no extension)
  std::uint32_t a_len = 0;   // bases of `a` consumed by the best extension
  std::uint32_t b_len = 0;   // bases of `b` consumed
  std::uint64_t cells = 0;   // DP cells evaluated
};

/// Gapped X-drop extension of two suffixes (`a`, `b` already sliced so that
/// extension proceeds left-to-right from index 0 of both).
Extension xdrop_extend(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b,
                       const XDropParams& params);

/// Seed-and-extend alignment of `a` versus `b_oriented`. `b_oriented` must
/// already be in the seed's orientation (reverse-complemented when
/// seed.b_reversed). The seed region itself is scored by re-comparison (the
/// seed came from k-mer space and may straddle Ns after orientation).
Alignment xdrop_align(std::span<const std::uint8_t> a,
                      std::span<const std::uint8_t> b_oriented, const Seed& seed,
                      const XDropParams& params = {});

/// Convenience overload operating on packed sequences; handles unpacking
/// and reverse-complement orientation internally (via seq::oriented_codes).
Alignment xdrop_align(const seq::Sequence& a, const seq::Sequence& b, const Seed& seed,
                      const XDropParams& params = {});

/// Process-wide high watermark of per-thread DP scratch bytes (all threads).
/// Exported by the engines as the `align.scratch_bytes` max-gauge.
std::uint64_t scratch_peak_bytes();

namespace detail {
/// The DP "minus infinity": deep enough that adding a penalty cannot wrap,
/// shared by the scalar kernel and the row-vectorized backends (which must
/// reproduce the scalar cell values bit-for-bit).
inline constexpr std::int32_t kNegInf = std::numeric_limits<std::int32_t>::min() / 4;

/// Test seam: invoked with the row index at the top of every DP row of
/// xdrop_extend. A throwing hook simulates a failure mid-extension for the
/// scratch-invariant exception-safety tests. Per-process, not thread-safe to
/// mutate while extensions run; tests set and restore it around a call.
extern void (*xdrop_row_hook)(std::size_t row);
/// Current calling-thread scratch footprint in cells (both rows).
std::size_t scratch_cells();
/// True when every scratch cell of the calling thread is kNegInf — the
/// invariant xdrop_extend must uphold between calls, even via exceptions.
bool scratch_invariant_holds();
}  // namespace detail

}  // namespace gnb::align
