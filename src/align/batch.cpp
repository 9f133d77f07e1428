#include "align/batch.hpp"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <utility>

#include "align/xdrop_batch.hpp"
#include "util/error.hpp"

namespace gnb::align {

namespace {

/// The byte-identity oracle: one xdrop_align call per task. Every other
/// backend is tested against this one.
class ScalarBatchAligner final : public BatchAligner {
 public:
  explicit ScalarBatchAligner(const XDropParams& params) : params_(params) {}

  std::vector<Alignment> align(std::span<const AlignTask> tasks) override {
    ++stats_.batches;
    stats_.tasks += tasks.size();
    std::vector<Alignment> results;
    results.reserve(tasks.size());
    for (const AlignTask& task : tasks) {
      results.push_back(xdrop_align(task.a, task.b, task.seed, params_));
      stats_.cells += results.back().cells;
    }
    // One lane, always live: the scalar backend is 100% occupied.
    stats_.lane_steps = stats_.cells;
    stats_.lane_steps_active = stats_.cells;
    return results;
  }

  [[nodiscard]] BatchAlignerInfo info() const override {
    return BatchAlignerInfo{"scalar", /*backend_id=*/0, /*lanes=*/1, /*simd=*/false};
  }
  [[nodiscard]] const BatchStats& stats() const override { return stats_; }

 private:
  const XDropParams params_;
  BatchStats stats_;
};

/// Row-vectorized backend: every task splits into a leftward and a
/// rightward X-drop extension (exactly as xdrop_align does), the row kernel
/// instantiation chosen at construction runs the extensions one after
/// another, and the per-task Alignment is assembled from the returned
/// Extensions plus the scalar-scored seed.
class SimdBatchAligner final : public BatchAligner {
 public:
  SimdBatchAligner(const XDropParams& params, const detail::RowKernel& kernel)
      : params_(params), kernel_(kernel) {}

  std::vector<Alignment> align(std::span<const AlignTask> tasks) override {
    ++stats_.batches;
    stats_.tasks += tasks.size();

    // Pre-size the b arena (kBPad lead bytes, kBPad pad bytes after every
    // job) and the reversed-prefix storage so appends never reallocate —
    // jobs hold raw pointers into both.
    constexpr std::size_t kPad = detail::kBPad;
    std::size_t arena_bytes = kPad;
    std::size_t ra_bytes = 0;
    for (const AlignTask& task : tasks) {
      const Seed& seed = task.seed;
      GNB_CHECK_MSG(seed.a_pos + seed.length <= task.a.size(),
                    "seed exceeds sequence a: pos " << seed.a_pos << " len " << seed.length
                                                    << " size " << task.a.size());
      GNB_CHECK_MSG(seed.b_pos + seed.length <= task.b.size(),
                    "seed exceeds sequence b: pos " << seed.b_pos << " len " << seed.length
                                                    << " size " << task.b.size());
      if (seed.a_pos > 0 && seed.b_pos > 0) {
        ra_bytes += seed.a_pos;
        arena_bytes += static_cast<std::size_t>(seed.b_pos) + kPad;
      }
      const std::size_t right_b = task.b.size() - seed.b_pos - seed.length;
      if (task.a.size() - seed.a_pos - seed.length > 0 && right_b > 0)
        arena_bytes += right_b + kPad;
    }
    arena_.assign(kPad, 0);
    arena_.reserve(arena_bytes);
    ra_store_.clear();
    ra_store_.reserve(ra_bytes);
    jobs_.clear();
    // Job indices per task; -1 = empty extension (resolves to Extension{}).
    left_job_.assign(tasks.size(), -1);
    right_job_.assign(tasks.size(), -1);

    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
      const AlignTask& task = tasks[ti];
      const Seed& seed = task.seed;
      // Leftward extension: reversed prefixes before the seed.
      if (seed.a_pos > 0 && seed.b_pos > 0) {
        const std::size_t ra_off = ra_store_.size();
        ra_store_.insert(ra_store_.end(), task.a.rend() - seed.a_pos, task.a.rend());
        left_job_[ti] = static_cast<std::int32_t>(jobs_.size());
        jobs_.push_back(detail::ExtJob{ra_store_.data() + ra_off,
                                       static_cast<std::int32_t>(seed.a_pos),
                                       append_b(task.b.rend() - seed.b_pos, task.b.rend()),
                                       static_cast<std::int32_t>(seed.b_pos)});
      }
      // Rightward extension: suffixes after the seed.
      const std::size_t a_tail = task.a.size() - seed.a_pos - seed.length;
      const std::size_t b_tail = task.b.size() - seed.b_pos - seed.length;
      if (a_tail > 0 && b_tail > 0) {
        right_job_[ti] = static_cast<std::int32_t>(jobs_.size());
        jobs_.push_back(detail::ExtJob{task.a.data() + seed.a_pos + seed.length,
                                       static_cast<std::int32_t>(a_tail),
                                       append_b(task.b.end() - b_tail, task.b.end()),
                                       static_cast<std::int32_t>(b_tail)});
      }
    }

    extensions_.assign(jobs_.size(), Extension{});
    kernel_.run(jobs_, params_, extensions_, rows_, stats_);

    std::vector<Alignment> results;
    results.reserve(tasks.size());
    for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
      const AlignTask& task = tasks[ti];
      const Seed& seed = task.seed;
      std::int32_t seed_score = 0;
      for (std::uint16_t i = 0; i < seed.length; ++i)
        seed_score +=
            params_.scoring.substitution(task.a[seed.a_pos + i], task.b[seed.b_pos + i]);
      const Extension left =
          left_job_[ti] >= 0 ? extensions_[static_cast<std::size_t>(left_job_[ti])]
                             : Extension{};
      const Extension right =
          right_job_[ti] >= 0 ? extensions_[static_cast<std::size_t>(right_job_[ti])]
                              : Extension{};
      Alignment result;
      result.b_reversed = seed.b_reversed;
      result.score = seed_score + left.score + right.score;
      result.cells = left.cells + right.cells;
      result.a_begin = seed.a_pos - left.a_len;
      result.a_end = seed.a_pos + seed.length + right.a_len;
      result.b_begin = seed.b_pos - left.b_len;
      result.b_end = seed.b_pos + seed.length + right.b_len;
      stats_.cells += result.cells;
      results.push_back(result);
    }
    return results;
  }

  [[nodiscard]] BatchAlignerInfo info() const override {
    return BatchAlignerInfo{kernel_.name, kernel_.backend_id,
                            static_cast<std::size_t>(kernel_.lanes), /*simd=*/true};
  }
  [[nodiscard]] const BatchStats& stats() const override { return stats_; }

 private:
  /// Append [first, last) to the b arena followed by kBPad pad bytes;
  /// returns a pointer to the first element.
  template <class It>
  const std::uint8_t* append_b(It first, It last) {
    const std::size_t off = arena_.size();
    arena_.insert(arena_.end(), first, last);
    arena_.resize(arena_.size() + detail::kBPad, 0);
    return arena_.data() + off;
  }

  const XDropParams params_;
  const detail::RowKernel& kernel_;
  BatchStats stats_;

  // Per-call staging, reused across align() calls.
  std::vector<detail::ExtJob> jobs_;
  std::vector<std::uint8_t> arena_;     // b codes, padded for the kernel's wide loads
  std::vector<std::uint8_t> ra_store_;  // reversed a prefixes (left extensions)
  std::vector<std::int32_t> left_job_, right_job_;
  std::vector<Extension> extensions_;
  detail::RowScratch rows_;  // the kernel's ping-pong rows
};

}  // namespace

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512bw") != 0 && __builtin_cpu_supports("avx512vbmi") != 0;
#else
  return false;
#endif
}

namespace detail {

#if defined(GNB_HAVE_AVX512_TU)
constexpr ExtendBatchFn kAvx512 = extend_batch_avx512_i8;
#else
constexpr ExtendBatchFn kAvx512 = nullptr;
#endif
#if defined(GNB_HAVE_AVX2_TU)
constexpr ExtendBatchFn kAvx2 = extend_batch_avx2_i8;
#else
constexpr ExtendBatchFn kAvx2 = nullptr;
#endif

std::span<const RowKernel> row_kernels() {
  static constexpr RowKernel kKernels[] = {
      {"simd-avx512", 3, 64, true, kAvx512, cpu_supports_avx512},
      {"simd-avx2", 2, 32, true, kAvx2, cpu_supports_avx2},
      {"simd-portable", 1, 8, false, extend_batch_portable, [] { return true; }},
  };
  return kKernels;
}

std::unique_ptr<BatchAligner> make_row_kernel_aligner(const RowKernel& kernel,
                                                      const XDropParams& params) {
  GNB_CHECK_MSG(kernel.runnable() && kernel.exact_for(params),
                kernel.name << " cannot run here or is not exact for x " << params.x);
  return std::make_unique<SimdBatchAligner>(params, kernel);
}

}  // namespace detail

proto::BatchAlignerKind resolve_batch_aligner(proto::BatchAlignerKind kind) {
  // The row kernel always exists (portable fallback), so `auto` means simd;
  // which instantiation runs is decided inside make_batch_aligner.
  return kind == proto::BatchAlignerKind::kAuto ? proto::BatchAlignerKind::kSimd : kind;
}

std::unique_ptr<BatchAligner> make_batch_aligner(proto::BatchAlignerKind kind,
                                                 const XDropParams& params) {
  if (resolve_batch_aligner(kind) == proto::BatchAlignerKind::kScalar)
    return std::make_unique<ScalarBatchAligner>(params);
  // The widest instantiation the binary has, the CPU runs and the scoring
  // fits. The portable int32 kernel, last in the table, runs anywhere and
  // takes any scoring, so the search always ends on a kernel.
  const auto kernels = detail::row_kernels();
  const auto kernel = std::find_if(kernels.begin(), kernels.end(), [&](const auto& k) {
    return k.runnable() && k.exact_for(params);
  });
  return detail::make_row_kernel_aligner(*kernel, params);
}

std::string batch_aligner_report(proto::BatchAlignerKind requested) {
  const auto backend = make_batch_aligner(requested, XDropParams{});
  const BatchAlignerInfo info = backend->info();
  std::ostringstream out;
  out << "batch aligner: " << info.name << " (" << info.lanes
      << (info.lanes == 1 ? " lane" : " lanes") << ", requested "
      << proto::to_string(requested) << "; cpu avx2=" << (cpu_supports_avx2() ? "yes" : "no")
      << " avx512=" << (cpu_supports_avx512() ? "yes" : "no") << ", built=";
  const char* sep = "";
  for (const detail::RowKernel& kernel : detail::row_kernels()) {
    if (kernel.run == nullptr) continue;
    out << sep << (std::string_view(kernel.name).substr(std::string_view("simd-").size()));
    sep = "+";
  }
  out << ")";
  return out.str();
}

}  // namespace gnb::align
