// AVX2 instantiation of the row kernel: one DP row, 16 int16 cells per ymm
// register. This TU is compiled with -mavx2 (gated by the GNB_SIMD CMake
// option plus a compiler check); nothing outside it may require AVX2, and
// callers must consult align::cpu_supports_avx2() before dispatching here —
// the rest of the binary stays runnable on baseline x86-64.
//
// Every op maps 1:1 onto the ScalarLaneOps reference semantics with
// saturating int16 adds and subtracts in place of int32 ones (all-ones/
// all-zeros masks, byte movemask), so the instantiation is bit-identical to
// the portable and scalar kernels wherever fits_int16 admits it. The prefix
// scans shift within each 128-bit half with one byte align that fills the
// vacated lanes from the sentinel vector, then cross the halves with one
// broadcast of the low half's last lane.

#include "align/xdrop_batch.hpp"

#if defined(GNB_HAVE_AVX2_TU)

#include <immintrin.h>

#include <limits>

namespace gnb::align::detail {
namespace {

struct Avx2I16Ops {
  using T = std::int16_t;
  static constexpr int W = 16;
  static constexpr T kNegInf = std::numeric_limits<T>::min();
  using V = __m256i;

  static V broadcast(T x) { return _mm256_set1_epi16(x); }
  static V load(const T* p) { return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)); }
  static void store(T* p, V x) { _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x); }
  static V widen_bytes(const std::uint8_t* p) {
    return _mm256_cvtepu8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static V add(V a, V b) { return _mm256_adds_epi16(a, b); }
  static V sub(V a, V b) { return _mm256_subs_epi16(a, b); }
  static V max(V a, V b) { return _mm256_max_epi16(a, b); }
  static V cmpgt(V a, V b) { return _mm256_cmpgt_epi16(a, b); }
  static V cmpeq(V a, V b) { return _mm256_cmpeq_epi16(a, b); }
  static V blend(V m, V a, V b) { return _mm256_blendv_epi8(b, a, m); }
  template <int kK>
  static V shift_in_half(V a, V fill) {
    return _mm256_alignr_epi8(a, fill, 16 - 2 * kK);
  }
  static V broadcast_low_last(V a) {
    return _mm256_broadcastw_epi16(_mm_srli_si128(_mm256_castsi256_si128(a), 14));
  }
  static V broadcast_last(V a) {
    return _mm256_shuffle_epi8(_mm256_permute2x128_si256(a, a, 0x11), _mm256_set1_epi16(0x0F0E));
  }
  static T last(V a) { return static_cast<T>(_mm256_extract_epi16(a, 15)); }
  static bool any(V m) { return _mm256_testz_si256(m, m) == 0; }
  static std::uint32_t movemask(V m) {
    return static_cast<std::uint32_t>(_mm256_movemask_epi8(m));
  }
};

}  // namespace

void extend_batch_avx2_i16(std::span<const ExtJob> jobs, const XDropParams& params,
                           std::span<Extension> out, RowScratch& scratch, BatchStats& stats) {
  extend_batch<Avx2I16Ops>(jobs, params, out, scratch, stats);
}

}  // namespace gnb::align::detail

#endif  // GNB_HAVE_AVX2_TU
