#pragma once
// Backend-agnostic pull-side protocol state: index a rank's tasks by the
// remote read each one requires, dedup the resulting pulls (at most one
// request per distinct remote read, §3.2), batch pulls per owner, and
// window outstanding requests. The real async engine executes these
// decisions over RPC; the BSP engine derives its request lists from the
// same index; the simulator costs them.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace gnb::proto {

/// One deduplicated remote-read pull: at most one request per distinct
/// remote read, no matter how many tasks need it.
struct PullRequest {
  std::uint32_t read = 0;
  std::uint32_t owner = 0;      // rank that serves the read
  std::uint64_t bytes = 0;      // wire frame size under the active codec (0 = unknown)
  std::uint64_t raw_bytes = 0;  // off-codec-equivalent size (0 = unknown)
};

/// Indexes one rank's tasks by the remote read they need. Tasks are opaque
/// indices so both real kmer::AlignTask lists and simulated task streams
/// can feed the same structure.
class PullIndex {
 public:
  /// Record task `task` between reads `a` and `b` owned by `owner_a` and
  /// `owner_b`; `me` is the indexing rank. Exactly one of the owners must
  /// be `me` (the stage-3 owner invariant). `bytes` is the wire size of
  /// the remote read when the caller knows it (0 otherwise).
  void add_task(std::size_t task, std::uint32_t a, std::uint32_t b, std::uint32_t owner_a,
                std::uint32_t owner_b, std::uint32_t me, std::uint64_t bytes = 0);

  /// Sort pulls into the deterministic issue order both backends share
  /// (ascending remote read id). Call once, after the last add_task.
  void finalize();

  /// Tasks with both reads local to `me`.
  [[nodiscard]] const std::vector<std::size_t>& local_tasks() const { return local_tasks_; }

  /// Deduplicated pulls, ascending by read id after finalize().
  [[nodiscard]] const std::vector<PullRequest>& pulls() const { return pulls_; }

  /// Tasks that need remote read `read` (empty when `read` is not one).
  [[nodiscard]] const std::vector<std::size_t>& tasks_for(std::uint32_t read) const;

  /// Deduplicated read ids needed from each owner, ascending — the BSP
  /// request messages.
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> needed_by_owner(
      std::size_t nranks) const;

  /// Number of distinct pulls aimed at each owner (message accounting).
  [[nodiscard]] std::vector<std::uint64_t> pulls_per_owner(std::size_t nranks) const;

  /// Total wire bytes across pulls (meaningful only when add_task was fed
  /// per-read sizes).
  [[nodiscard]] std::uint64_t pull_bytes() const;

 private:
  std::vector<std::size_t> local_tasks_;
  std::vector<PullRequest> pulls_;
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> tasks_by_read_;
};

/// One aggregated pull message: up to `async_batch` reads from one owner.
struct PullBatch {
  std::uint32_t owner = 0;
  std::vector<std::uint32_t> reads;
};

/// Group pulls into at-most-`batch`-sized per-owner messages, preserving
/// the pulls' order within each owner. A batch is emitted as soon as it
/// fills, so `batch <= 1` yields exactly one message per pull in input
/// order (the paper's design); leftovers flush in ascending owner order.
[[nodiscard]] std::vector<PullBatch> batch_pulls(const std::vector<PullRequest>& pulls,
                                                 std::size_t batch);

/// Total messages after batching: sum over owners of ceil(pulls / batch).
[[nodiscard]] std::uint64_t batched_message_count(const std::vector<std::uint64_t>& pulls_per_owner,
                                                  std::size_t batch);

/// Outstanding-request window ("limits on outgoing requests", §4.3). The
/// policy object is shared; the *waiting* is backend-specific — the engine
/// polls RPC progress until below the limit, the simulator divides the
/// round-trip ramp by the window.
class RequestWindow {
 public:
  explicit RequestWindow(std::size_t limit) : limit_(limit == 0 ? 1 : limit) {}

  [[nodiscard]] std::size_t limit() const { return limit_; }
  [[nodiscard]] bool can_issue() const { return in_flight_ < limit_; }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_; }
  [[nodiscard]] std::uint64_t issued() const { return issued_; }

  void on_issue() {
    ++in_flight_;
    ++issued_;
  }
  void on_reply() {
    if (in_flight_ > 0) --in_flight_;
  }

 private:
  std::size_t limit_;
  std::size_t in_flight_ = 0;
  std::uint64_t issued_ = 0;
};

}  // namespace gnb::proto
