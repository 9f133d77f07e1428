// Baseline-ISA instantiation of the row kernel: ScalarLaneOps compiled with
// the project's default flags (SSE2 on x86-64). This is the fallback the
// `simd` backend dispatches to when the AVX2 TU is compiled out
// (GNB_SIMD=OFF) or the host CPU lacks AVX2 — 8 int32 cells per chunk,
// bit-identical results, narrower registers.

#include "align/xdrop_batch.hpp"

namespace gnb::align::detail {

void extend_batch_portable(std::span<const ExtJob> jobs, const XDropParams& params,
                           std::span<Extension> out, RowScratch& scratch, BatchStats& stats) {
  extend_batch<ScalarLaneOps>(jobs, params, out, scratch, stats);
}

}  // namespace gnb::align::detail
