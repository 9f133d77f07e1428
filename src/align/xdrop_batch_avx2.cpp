// AVX2 instantiation of the row kernel: one DP row, 8 int32 cells per ymm
// register. This TU is compiled with -mavx2 (gated by the GNB_SIMD CMake
// option plus a compiler check); nothing outside it may require AVX2, and
// callers must consult align::cpu_supports_avx2() before dispatching here —
// the rest of the binary stays runnable on baseline x86-64.
//
// Every op maps 1:1 onto the ScalarLaneOps reference semantics (exact int32
// arithmetic, all-ones/all-zeros masks), so the template instantiation is
// bit-identical to the portable and scalar kernels by construction. The lane
// shifts of the prefix scans are a cross-lane permute plus an immediate
// blend that fills the vacated lanes.

#include "align/xdrop_batch.hpp"

#if defined(GNB_HAVE_AVX2_TU)

#include <immintrin.h>

namespace gnb::align::detail {
namespace {

struct Avx2LaneOps {
  static constexpr int W = 8;
  using V = __m256i;

  static V broadcast(std::int32_t x) { return _mm256_set1_epi32(x); }
  static V load(const std::int32_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::int32_t* p, V x) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x);
  }
  static V widen_bytes(const std::uint8_t* p) {
    return _mm256_cvtepu8_epi32(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  }
  static V add(V a, V b) { return _mm256_add_epi32(a, b); }
  static V sub(V a, V b) { return _mm256_sub_epi32(a, b); }
  static V max(V a, V b) { return _mm256_max_epi32(a, b); }
  static V cmpgt(V a, V b) { return _mm256_cmpgt_epi32(a, b); }
  static V cmpeq(V a, V b) { return _mm256_cmpeq_epi32(a, b); }
  static V blend(V m, V a, V b) { return _mm256_blendv_epi8(b, a, m); }
  template <int kK>
  static V shift_in(V a, V fill) {
    const V idx = _mm256_setr_epi32(0, 1 - kK, 2 - kK, 3 - kK, 4 - kK, 5 - kK, 6 - kK, 7 - kK);
    return _mm256_blend_epi32(_mm256_permutevar8x32_epi32(a, idx), fill, (1 << kK) - 1);
  }
  static V broadcast_last(V a) { return _mm256_permutevar8x32_epi32(a, _mm256_set1_epi32(7)); }
  static std::int32_t last(V a) { return _mm256_extract_epi32(a, 7); }
  static bool any(V m) { return _mm256_testz_si256(m, m) == 0; }
  static int movemask(V m) { return _mm256_movemask_ps(_mm256_castsi256_ps(m)); }
};

}  // namespace

void extend_batch_avx2(std::span<const ExtJob> jobs, const XDropParams& params,
                       std::span<Extension> out, std::vector<std::int32_t>& row_a,
                       std::vector<std::int32_t>& row_b, BatchStats& stats) {
  extend_batch<Avx2LaneOps>(jobs, params, out, row_a, row_b, stats);
}

}  // namespace gnb::align::detail

#endif  // GNB_HAVE_AVX2_TU
