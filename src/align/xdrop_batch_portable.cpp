// Baseline-ISA parts of the row kernel, compiled with the project's default
// flags (SSE2 on x86-64):
//   - the portable instantiation, ScalarLaneOps: the fallback the `simd`
//     backend dispatches to when no wider instantiation is compiled in
//     (GNB_SIMD=OFF), the host CPU lacks its ISA or the scoring is too wide
//     for int8 lanes — 8 int32 cells per chunk, bit-identical results,
//     narrower registers;
//   - what every instantiation calls outside its hot loop: the int8 bound,
//     the parameter check and the growth of the row scratch. Compiled here,
//     they cannot pick up an ISA-specific copy from another TU.

#include <algorithm>
#include <cstdlib>

#include "align/xdrop_batch.hpp"
#include "util/error.hpp"

namespace gnb::align::detail {

bool fits_int8(const XDropParams& params, int lanes) {
  const Scoring& sc = params.scoring;
  const std::int64_t m = std::max({std::abs(std::int64_t{sc.match}),
                                   std::abs(std::int64_t{sc.mismatch}),
                                   std::abs(std::int64_t{sc.gap})});
  return params.x >= 0 && params.x + lanes * m < (1 << 7);
}

void check_row_kernel_params(const XDropParams& params, int int8_lanes) {
  GNB_CHECK_MSG(params.x >= 0, "X-drop threshold must be non-negative");
  if (int8_lanes > 0)
    GNB_CHECK_MSG(fits_int8(params, int8_lanes),
                  "scoring too wide for the " << int8_lanes << "-lane int8 row kernel: x "
                                              << params.x << ", match " << params.scoring.match
                                              << ", mismatch " << params.scoring.mismatch
                                              << ", gap " << params.scoring.gap);
}

template <class T>
void grow_rows(RowPair<T>& rows, std::size_t cap, T sentinel) {
  rows.a.assign(cap, sentinel);
  rows.b.assign(cap, sentinel);
}
template void grow_rows(RowPair<std::int8_t>&, std::size_t, std::int8_t);
template void grow_rows(RowPair<std::int32_t>&, std::size_t, std::int32_t);

void extend_batch_portable(std::span<const ExtJob> jobs, const XDropParams& params,
                           std::span<Extension> out, RowScratch& scratch, BatchStats& stats) {
  extend_batch<ScalarLaneOps>(jobs, params, out, scratch, stats);
}

}  // namespace gnb::align::detail
