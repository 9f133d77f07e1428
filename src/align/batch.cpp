#include "align/batch.hpp"

#include <algorithm>
#include <sstream>
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
  SimdBatchAligner(const XDropParams& params, detail::ExtendBatchFn kernel, std::size_t lanes,
                   const char* name, std::uint64_t backend_id)
      : params_(params), kernel_(kernel), lanes_(lanes), name_(name), backend_id_(backend_id) {}

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
    kernel_(jobs_, params_, extensions_, rows_, stats_);

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
    return BatchAlignerInfo{name_, backend_id_, lanes_, /*simd=*/true};
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
  const detail::ExtendBatchFn kernel_;
  const std::size_t lanes_;
  const char* name_;
  const std::uint64_t backend_id_;
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

bool simd_compiled_in() {
#if defined(GNB_HAVE_AVX2_TU)
  return true;
#else
  return false;
#endif
}

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

proto::BatchAlignerKind resolve_batch_aligner(proto::BatchAlignerKind kind) {
  // The row kernel always exists (portable fallback), so `auto` means simd;
  // which instantiation runs is decided inside make_batch_aligner.
  return kind == proto::BatchAlignerKind::kAuto ? proto::BatchAlignerKind::kSimd : kind;
}

std::unique_ptr<BatchAligner> make_batch_aligner(proto::BatchAlignerKind kind,
                                                 const XDropParams& params) {
  switch (resolve_batch_aligner(kind)) {
    case proto::BatchAlignerKind::kScalar:
      return std::make_unique<ScalarBatchAligner>(params);
    default:
      break;
  }
#if defined(GNB_HAVE_AVX2_TU)
  // The AVX2 kernel runs int16 lanes only; scorings too wide for them
  // (none of the defaults') fall back to the portable int32 kernel.
  if (cpu_supports_avx2() && detail::fits_int16(params))
    return std::make_unique<SimdBatchAligner>(params, detail::extend_batch_avx2_i16,
                                              /*lanes=*/16, "simd-avx2", /*backend_id=*/2);
#endif
  return std::make_unique<SimdBatchAligner>(params, detail::extend_batch_portable,
                                            /*lanes=*/8, "simd-portable", /*backend_id=*/1);
}

std::string batch_aligner_report(proto::BatchAlignerKind requested) {
  const auto backend = make_batch_aligner(requested, XDropParams{});
  const BatchAlignerInfo info = backend->info();
  std::ostringstream out;
  out << "batch aligner: " << info.name << " (" << info.lanes
      << (info.lanes == 1 ? " lane" : " lanes") << ", requested "
      << proto::to_string(requested) << "; cpu avx2="
      << (cpu_supports_avx2() ? "yes" : "no")
      << ", built=" << (simd_compiled_in() ? "avx2+portable" : "portable") << ")";
  return out.str();
}

}  // namespace gnb::align
