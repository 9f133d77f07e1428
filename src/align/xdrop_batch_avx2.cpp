// AVX2 instantiation of the row kernel: one DP row, 32 int8 cells per ymm
// register. This TU is compiled with -mavx2 (gated by the GNB_SIMD CMake
// option plus a compiler check); nothing outside it may require AVX2, and
// callers must consult align::cpu_supports_avx2() before dispatching here —
// the rest of the binary stays runnable on baseline x86-64.
//
// Every op maps 1:1 onto the ScalarLaneOps reference semantics with
// saturating int8 adds and subtracts in place of int32 ones (all-ones/
// all-zeros byte masks), so the instantiation is bit-identical to the
// portable and scalar kernels wherever fits_int8(params, 32) admits it. One
// lane is one byte, so b's codes load as they are stored and the byte
// movemask has one bit per lane. The prefix maxes shift within each 128-bit
// block with one byte align that fills the vacated lanes from the sentinel
// vector, then cross the two blocks with one shuffle that gives the high
// block the low block's last lane.

#include "align/xdrop_batch.hpp"

#if defined(GNB_HAVE_AVX2_TU)

#include <immintrin.h>

#include <limits>

namespace gnb::align::detail {
namespace {

struct Avx2I8Ops {
  using T = std::int8_t;
  static constexpr int W = 32;
  static constexpr int kBlock = 16;
  static constexpr T kNegInf = std::numeric_limits<T>::min();
  using V = __m256i;
  using Mask = __m256i;

  static V broadcast(T x) { return _mm256_set1_epi8(x); }
  static V load(const T* p) { return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)); }
  static void store(T* p, V x) { _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x); }
  static V load_bytes(const std::uint8_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static V add(V a, V b) { return _mm256_adds_epi8(a, b); }
  static V sub(V a, V b) { return _mm256_subs_epi8(a, b); }
  static V max(V a, V b) { return _mm256_max_epi8(a, b); }
  static Mask cmpgt(V a, V b) { return _mm256_cmpgt_epi8(a, b); }
  static Mask cmpeq(V a, V b) { return _mm256_cmpeq_epi8(a, b); }
  static V blend(Mask m, V a, V b) { return _mm256_blendv_epi8(b, a, m); }
  template <int kK>
  static V shift_in_block(V a, V fill) {
    return _mm256_alignr_epi8(a, fill, 16 - kK);
  }
  /// Two blocks, so kS = 0 only: the high block takes the low block's last
  /// lane, and the low block keeps its own.
  template <int kS>
  static V from_block_below(V a) {
    static_assert(kS == 0);
    const V index = _mm256_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,  //
                                     15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15,
                                     15);
    return _mm256_shuffle_epi8(_mm256_permute2x128_si256(a, a, 0x00), index);
  }
  static V broadcast_last(V a) {
    return _mm256_shuffle_epi8(_mm256_permute2x128_si256(a, a, 0x11), _mm256_set1_epi8(15));
  }
  static T first(V a) { return static_cast<T>(_mm256_cvtsi256_si32(a)); }
  static bool any(Mask m) { return _mm256_testz_si256(m, m) == 0; }
  static std::uint64_t movemask(Mask m) {
    return static_cast<std::uint32_t>(_mm256_movemask_epi8(m));
  }
};

}  // namespace

void extend_batch_avx2_i8(std::span<const ExtJob> jobs, const XDropParams& params,
                          std::span<Extension> out, RowScratch& scratch, BatchStats& stats) {
  extend_batch<Avx2I8Ops>(jobs, params, out, scratch, stats);
}

}  // namespace gnb::align::detail

#endif  // GNB_HAVE_AVX2_TU
