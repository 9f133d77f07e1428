// AVX-512 instantiation of the row kernel: one DP row, 64 int8 cells per zmm
// register. This TU is compiled with -mavx512bw -mavx512vbmi (gated by the
// GNB_SIMD CMake option plus a compiler check); callers must consult
// align::cpu_supports_avx512() before dispatching here.
//
// The ops are the AVX2 kernel's on four 128-bit blocks instead of two, with
// k-mask compares and blends: cmpgt/cmpeq return one mask bit per lane, so
// movemask is the mask itself. The in-block shifts are the same byte align
// per block. The two cross-block steps and the last-lane broadcast are one
// vpermb (VBMI) each. GCC 12 builds the merge form of vpermb, and
// _mm512_castsi512_si128, on an _mm*_undefined_* operand that
// -Wmaybe-uninitialized flags, so every permute uses the zero-masking form
// with all lanes selected and the first lane is read with vmovd.

#include "align/xdrop_batch.hpp"

#if defined(GNB_HAVE_AVX512_TU)

#include <immintrin.h>

#include <array>
#include <limits>

namespace gnb::align::detail {
namespace {

struct Avx512I8Ops {
  using T = std::int8_t;
  static constexpr int W = 64;
  static constexpr int kBlock = 16;
  static constexpr T kNegInf = std::numeric_limits<T>::min();
  using V = __m512i;
  using Mask = __mmask64;

  static V broadcast(T x) { return _mm512_set1_epi8(x); }
  static V load(const T* p) { return _mm512_loadu_si512(p); }
  static void store(T* p, V x) { _mm512_storeu_si512(p, x); }
  static V load_bytes(const std::uint8_t* p) { return _mm512_loadu_si512(p); }
  static V add(V a, V b) { return _mm512_adds_epi8(a, b); }
  static V sub(V a, V b) { return _mm512_subs_epi8(a, b); }
  static V max(V a, V b) { return _mm512_max_epi8(a, b); }
  static Mask cmpgt(V a, V b) { return _mm512_cmpgt_epi8_mask(a, b); }
  static Mask cmpeq(V a, V b) { return _mm512_cmpeq_epi8_mask(a, b); }
  static V blend(Mask m, V a, V b) { return _mm512_mask_blend_epi8(m, b, a); }
  template <int kK>
  static V shift_in_block(V a, V fill) {
    return _mm512_alignr_epi8(a, fill, 16 - kK);
  }
  /// Lane l of block b >= 2^kS reads lane 16(b - 2^kS) + 15; the lanes of
  /// the lower blocks read themselves.
  template <int kS>
  static V from_block_below(V a) {
    static constexpr auto kIndex = [] {
      std::array<std::int8_t, W> index{};
      for (int l = 0; l < W; ++l) {
        const int src = (l / kBlock - (1 << kS)) * kBlock + kBlock - 1;
        index[l] = static_cast<std::int8_t>(src < 0 ? l : src);
      }
      return index;
    }();
    return permute(a, _mm512_loadu_si512(kIndex.data()));
  }
  static V broadcast_last(V a) { return permute(a, _mm512_set1_epi8(W - 1)); }
  static T first(V a) { return static_cast<T>(_mm512_cvtsi512_si32(a)); }
  static bool any(Mask m) { return m != 0; }
  static std::uint64_t movemask(Mask m) { return m; }

 private:
  static V permute(V a, V index) { return _mm512_maskz_permutexvar_epi8(~Mask{0}, index, a); }
};

}  // namespace

void extend_batch_avx512_i8(std::span<const ExtJob> jobs, const XDropParams& params,
                            std::span<Extension> out, RowScratch& scratch, BatchStats& stats) {
  extend_batch<Avx512I8Ops>(jobs, params, out, scratch, stats);
}

}  // namespace gnb::align::detail

#endif  // GNB_HAVE_AVX512_TU
