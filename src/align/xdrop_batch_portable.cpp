// Baseline-ISA instantiation of the row kernel: ScalarLaneOps<8> compiled
// with the project's default flags (SSE2 on x86-64). This is the fallback
// the `simd` backend dispatches to when the AVX2 TU is compiled out
// (GNB_SIMD=OFF) or the host CPU lacks AVX2 — same 8-cell chunks, same
// bit-identical results, narrower registers.

#include "align/xdrop_batch.hpp"

namespace gnb::align::detail {

void extend_batch_portable(std::span<const ExtJob> jobs, const XDropParams& params,
                           std::span<Extension> out, std::vector<std::int32_t>& row_a,
                           std::vector<std::int32_t>& row_b, BatchStats& stats) {
  extend_batch<ScalarLaneOps<8>>(jobs, params, out, row_a, row_b, stats);
}

}  // namespace gnb::align::detail
