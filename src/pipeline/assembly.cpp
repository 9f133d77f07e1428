#include "pipeline/assembly.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "graph/assembler.hpp"
#include "graph/gfa.hpp"
#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "proto/pull_index.hpp"
#include "proto/recovery.hpp"
#include "util/error.hpp"
#include "util/wire.hpp"

namespace gnb::pipeline {
namespace {

using graph::NodeId;
using graph::OverlapEdge;
using rt::Bytes;

// --- wire formats -----------------------------------------------------------

/// Manifest payload: checksum-framed record list. A rank with zero records
/// still writes a non-empty manifest, so an empty slot means "died before
/// persisting" — a protocol violation we fail loudly on.
Bytes pack_records(std::span<const align::AlignmentRecord> records) {
  Bytes out;
  wire::begin_checksum(out);
  wire::put<std::uint64_t>(out, records.size());
  for (const auto& record : records) align::put_record(out, record);
  wire::seal_checksum(out);
  return out;
}

std::vector<align::AlignmentRecord> unpack_records(const Bytes& in) {
  GNB_THROW_IF(in.empty(), "assembly: origin rank died before persisting its records");
  std::size_t offset = 0;
  GNB_THROW_IF(!wire::verify_checksum(in, offset), "assembly: manifest checksum mismatch");
  const auto count = wire::get<std::uint64_t>(in, offset);
  std::vector<align::AlignmentRecord> records;
  records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) records.push_back(align::get_record(in, offset));
  return records;
}

void put_edge(Bytes& out, const OverlapEdge& edge) {
  wire::put<std::uint64_t>(out, edge.from);
  wire::put<std::uint64_t>(out, edge.to);
  wire::put<std::uint32_t>(out, edge.overlap);
  wire::put<std::uint32_t>(out, static_cast<std::uint32_t>(edge.score));
}

OverlapEdge get_edge(std::span<const std::uint8_t> in, std::size_t& offset) {
  OverlapEdge edge;
  edge.from = wire::get<std::uint64_t>(in, offset);
  edge.to = wire::get<std::uint64_t>(in, offset);
  edge.overlap = wire::get<std::uint32_t>(in, offset);
  edge.score = static_cast<std::int32_t>(wire::get<std::uint32_t>(in, offset));
  return edge;
}

}  // namespace

Bytes pack_assembly(const graph::AssemblyResult& result) {
  Bytes out;
  wire::put<std::uint64_t>(out, result.graph_stats.reads);
  wire::put<std::uint64_t>(out, result.graph_stats.contained);
  wire::put<std::uint64_t>(out, result.graph_stats.dovetail_edges);
  wire::put<std::uint64_t>(out, result.graph_stats.reduced_edges);
  wire::put<std::uint64_t>(out, result.contained.size());
  for (const bool c : result.contained) wire::put<std::uint8_t>(out, c ? 1 : 0);
  wire::put<std::uint64_t>(out, result.edges.size());
  for (const OverlapEdge& edge : result.edges) put_edge(out, edge);
  wire::put<std::uint64_t>(out, result.contigs.size());
  for (const graph::Contig& contig : result.contigs) {
    wire::put<std::uint64_t>(out, contig.path.size());
    for (const NodeId node : contig.path) wire::put<std::uint64_t>(out, node);
    for (const std::uint32_t advance : contig.advances)
      wire::put<std::uint32_t>(out, advance);
    wire::put<std::uint64_t>(out, contig.length);
  }
  wire::put<std::uint64_t>(out, result.stats.contigs);
  wire::put<std::uint64_t>(out, result.stats.total_length);
  wire::put<std::uint64_t>(out, result.stats.longest);
  wire::put<std::uint64_t>(out, result.stats.n50);
  wire::put<std::uint64_t>(out, result.gfa.size());
  out.insert(out.end(), result.gfa.begin(), result.gfa.end());
  return out;
}

graph::AssemblyResult unpack_assembly(const Bytes& in) {
  graph::AssemblyResult result;
  std::size_t offset = 0;
  result.graph_stats.reads = wire::get<std::uint64_t>(in, offset);
  result.graph_stats.contained = wire::get<std::uint64_t>(in, offset);
  result.graph_stats.dovetail_edges = wire::get<std::uint64_t>(in, offset);
  result.graph_stats.reduced_edges = wire::get<std::uint64_t>(in, offset);
  const auto n_contained = wire::get<std::uint64_t>(in, offset);
  result.contained.resize(n_contained);
  for (std::uint64_t i = 0; i < n_contained; ++i)
    result.contained[i] = wire::get<std::uint8_t>(in, offset) != 0;
  const auto n_edges = wire::get<std::uint64_t>(in, offset);
  result.edges.reserve(n_edges);
  for (std::uint64_t i = 0; i < n_edges; ++i) result.edges.push_back(get_edge(in, offset));
  const auto n_contigs = wire::get<std::uint64_t>(in, offset);
  result.contigs.reserve(n_contigs);
  for (std::uint64_t i = 0; i < n_contigs; ++i) {
    graph::Contig contig;
    const auto path_len = wire::get<std::uint64_t>(in, offset);
    contig.path.reserve(path_len);
    for (std::uint64_t j = 0; j < path_len; ++j)
      contig.path.push_back(wire::get<std::uint64_t>(in, offset));
    contig.advances.reserve(path_len > 0 ? path_len - 1 : 0);
    for (std::uint64_t j = 1; j < path_len; ++j)
      contig.advances.push_back(wire::get<std::uint32_t>(in, offset));
    contig.length = wire::get<std::uint64_t>(in, offset);
    result.contigs.push_back(std::move(contig));
  }
  result.stats.contigs = wire::get<std::uint64_t>(in, offset);
  result.stats.total_length = wire::get<std::uint64_t>(in, offset);
  result.stats.longest = wire::get<std::uint64_t>(in, offset);
  result.stats.n50 = wire::get<std::uint64_t>(in, offset);
  const auto gfa_size = wire::get<std::uint64_t>(in, offset);
  GNB_THROW_IF(offset + gfa_size > in.size(), "assembly: truncated result broadcast");
  result.gfa.assign(reinterpret_cast<const char*>(in.data()) + offset, gfa_size);
  offset += gfa_size;
  return result;
}

namespace {

// --- one attempt ------------------------------------------------------------

/// State for one attempt at the three phases under a fixed membership
/// stamp. Every collective is followed by a stamp comparison; `expired()`
/// turning true makes every survivor abandon the attempt at the same point.
class Attempt {
 public:
  Attempt(rt::Rank& rank, const seq::ReadStore& reads,
          const std::vector<seq::ReadId>& bounds,
          std::span<const std::size_t> read_lengths,
          const DistributedAssemblyOptions& options)
      : rank_(rank),
        reads_(reads),
        read_lengths_(read_lengths),
        options_(options),
        nranks_(rank.nranks()),
        me_(rank.id()),
        epoch_(rank.collective_epoch()),
        alive_(rank.collective_alive()),
        omap_(bounds, alive_) {}

  [[nodiscard]] bool expired() const { return rank_.collective_epoch() != epoch_; }
  [[nodiscard]] rt::RankId root() const { return omap_.survivors().front(); }
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  // Per-attempt local tallies, read by the caller only after success.
  std::uint64_t local_edges = 0;
  std::uint64_t local_reduced = 0;
  std::uint64_t sent_bytes = 0;
  std::uint64_t pull_messages = 0;

  /// Run all phases; nullopt means the membership stamp expired and the
  /// caller must restart from the manifests.
  std::optional<graph::AssemblyResult> run() {
    load_region();
    {
      GNB_SPAN(obs::span::kGraphBuild, "records", region_.size());
      if (!build()) return std::nullopt;
    }
    {
      GNB_SPAN(obs::span::kGraphReduce, "fuzz", options_.assembly.fuzz);
      if (!reduce()) return std::nullopt;
      if (options_.assembly.prune && !prune()) return std::nullopt;
    }
    GNB_SPAN(obs::span::kGraphContig);
    return contigs();
  }

 private:
  [[nodiscard]] rt::RankId node_owner(NodeId node) const {
    return omap_.owner(graph::node_read(node));
  }

  std::vector<Bytes> exchange(std::vector<Bytes> send) {
    for (const Bytes& buffer : send) sent_bytes += buffer.size();
    return rank_.alltoallv(std::move(send));
  }

  /// Merge this rank's region: its own manifest plus the manifests of dead
  /// ranks the deterministic adoption rule (recovery planner) assigns to it.
  void load_region() {
    const auto& survivors = omap_.survivors();
    for (rt::RankId origin = 0; origin < nranks_; ++origin) {
      const bool adopted =
          alive_[origin] == 0 && survivors[origin % survivors.size()] == me_;
      if (origin != me_ && !adopted) continue;
      const auto records = unpack_records(rank_.durable().manifest(origin));
      region_.insert(region_.end(), records.begin(), records.end());
    }
  }

  bool build() {
    // Containment: local verdicts, then a union exchange so every rank
    // holds the identical global bitmap (set union is order-independent).
    Bytes verdicts;
    for (const auto& record : region_) {
      GNB_CHECK(record.read_a < read_lengths_.size() && record.read_b < read_lengths_.size());
      const seq::ReadId victim = graph::contained_read(
          record, read_lengths_[record.read_a], read_lengths_[record.read_b],
          options_.assembly.max_overhang, options_.assembly.end_slack);
      if (victim != seq::kInvalidRead) wire::put<std::uint32_t>(verdicts, victim);
    }
    std::vector<Bytes> send(nranks_);
    for (rt::RankId r = 0; r < nranks_; ++r) send[r] = verdicts;
    const auto received = exchange(std::move(send));
    if (expired()) return false;
    contained_.assign(read_lengths_.size(), false);
    for (const Bytes& buffer : received) {
      std::size_t offset = 0;
      while (offset < buffer.size())
        contained_[wire::get<std::uint32_t>(buffer, offset)] = true;
    }
    for (const bool c : contained_) contained_count_ += c ? 1 : 0;

    // Dovetail edges: each record's edge and its mirror are routed to the
    // owner of their from-node — the mirror-edge exchange.
    std::vector<Bytes> edge_send(nranks_);
    std::vector<OverlapEdge> scratch;
    for (const auto& record : region_) {
      if (contained_[record.read_a] || contained_[record.read_b]) continue;
      scratch.clear();
      graph::append_record_edges(record, read_lengths_[record.read_a],
                                 read_lengths_[record.read_b], options_.assembly.min_overlap,
                                 options_.assembly.max_overhang, options_.assembly.end_slack,
                                 scratch);
      for (const OverlapEdge& edge : scratch) put_edge(edge_send[node_owner(edge.from)], edge);
    }
    const auto edge_recv = exchange(std::move(edge_send));
    if (expired()) return false;
    for (const Bytes& buffer : edge_recv) {
      std::size_t offset = 0;
      while (offset < buffer.size()) {
        const OverlapEdge edge = get_edge(buffer, offset);
        GNB_CHECK(node_owner(edge.from) == me_);
        add_edge(edge);
      }
    }
    global_edges_ = static_cast<std::uint64_t>(rank_.allreduce_sum(
        static_cast<double>(local_edges)));
    return !expired();
  }

  /// Serial add_edge semantics: keep the strongest score per (from, to).
  /// Upstream emits one record per unordered read pair, so duplicates do
  /// not arise in practice; the rule keeps the build order-independent.
  void add_edge(const OverlapEdge& edge) {
    auto& list = adj_[edge.from];
    for (OverlapEdge& existing : list) {
      if (existing.to == edge.to) {
        if (edge.score > existing.score) {
          existing.overlap = edge.overlap;
          existing.score = edge.score;
        }
        return;
      }
    }
    list.push_back(edge);
    ++local_edges;
  }

  /// Live targets of one adjacency list.
  static std::vector<const OverlapEdge*> live(const std::vector<OverlapEdge>& list) {
    std::vector<const OverlapEdge*> out;
    for (const OverlapEdge& edge : list)
      if (!edge.reduced) out.push_back(&edge);
    return out;
  }

  bool reduce() {
    while (true) {
      ++rounds_;
      // Which remote witness neighborhoods does this round need? A node u
      // with fewer than two live out-edges can mark nothing.
      std::unordered_set<NodeId> remote;
      for (const auto& [u, list] : adj_) {
        const auto targets = live(list);
        if (targets.size() < 2) continue;
        for (const OverlapEdge* edge : targets)
          if (node_owner(edge->to) != me_) remote.insert(edge->to);
      }
      std::vector<NodeId> needed(remote.begin(), remote.end());
      std::sort(needed.begin(), needed.end());

      // Pull round, batched per owner exactly like the async engine's read
      // pulls (proto::batch_pulls under the shared RequestWindow policy).
      std::vector<proto::PullRequest> pulls;
      pulls.reserve(needed.size());
      for (const NodeId node : needed) {
        GNB_CHECK(node <= std::numeric_limits<std::uint32_t>::max());
        pulls.push_back(proto::PullRequest{static_cast<std::uint32_t>(node),
                                           node_owner(node), 0});
      }
      const auto batches = proto::batch_pulls(pulls, options_.proto.async_batch);
      proto::RequestWindow window(options_.proto.async_window);
      std::vector<Bytes> requests(nranks_);
      for (const proto::PullBatch& batch : batches) {
        window.on_issue();
        for (const std::uint32_t node : batch.reads)
          wire::put<std::uint64_t>(requests[batch.owner], node);
      }
      pull_messages += window.issued();
      const auto request_recv = exchange(std::move(requests));
      if (expired()) return false;
      for (std::size_t i = 0; i < batches.size(); ++i) window.on_reply();

      // Serve: live out-target lists of the requested nodes (the only
      // witness information the Myers condition consumes).
      std::vector<Bytes> replies(nranks_);
      for (rt::RankId src = 0; src < request_recv.size(); ++src) {
        std::size_t offset = 0;
        while (offset < request_recv[src].size()) {
          const NodeId node = wire::get<std::uint64_t>(request_recv[src], offset);
          wire::put<std::uint64_t>(replies[src], node);
          const auto it = adj_.find(node);
          const auto targets = it == adj_.end()
                                   ? std::vector<const OverlapEdge*>{}
                                   : live(it->second);
          wire::put<std::uint64_t>(replies[src], targets.size());
          for (const OverlapEdge* edge : targets)
            wire::put<std::uint64_t>(replies[src], edge->to);
        }
      }
      const auto reply_recv = exchange(std::move(replies));
      if (expired()) return false;
      std::unordered_map<NodeId, std::vector<NodeId>> witness;
      for (const Bytes& buffer : reply_recv) {
        std::size_t offset = 0;
        while (offset < buffer.size()) {
          const NodeId node = wire::get<std::uint64_t>(buffer, offset);
          const auto count = wire::get<std::uint64_t>(buffer, offset);
          auto& targets = witness[node];
          for (std::uint64_t i = 0; i < count; ++i)
            targets.push_back(wire::get<std::uint64_t>(buffer, offset));
        }
      }
      auto targets_of = [&](NodeId node) -> std::vector<NodeId> {
        if (node_owner(node) == me_) {
          std::vector<NodeId> out;
          const auto it = adj_.find(node);
          if (it != adj_.end())
            for (const OverlapEdge* edge : live(it->second)) out.push_back(edge->to);
          return out;
        }
        const auto it = witness.find(node);
        return it == witness.end() ? std::vector<NodeId>{} : it->second;
      };

      // Myers marks over the round-entry snapshot, mirrored on the spot:
      // u->w reduced implies ~w->~u reduced, each routed to its owner.
      std::vector<Bytes> mark_send(nranks_);
      auto send_mark = [&](NodeId from, NodeId to) {
        Bytes& buffer = mark_send[node_owner(from)];
        wire::put<std::uint64_t>(buffer, from);
        wire::put<std::uint64_t>(buffer, to);
      };
      for (const auto& [u, list] : adj_) {
        std::unordered_map<NodeId, std::uint32_t> index;
        for (const OverlapEdge& edge : list)
          if (!edge.reduced) index.emplace(edge.to, edge.overlap);
        if (index.size() < 2) continue;
        for (const auto& [v, ovl_uv] : index) {
          for (const NodeId w : targets_of(v)) {
            if (w == v || graph::node_read(w) == graph::node_read(u)) continue;
            const auto it = index.find(w);
            if (it == index.end()) continue;
            if (it->second <= ovl_uv + options_.assembly.fuzz) {
              send_mark(u, w);
              send_mark(graph::node_complement(w), graph::node_complement(u));
            }
          }
        }
      }
      const auto mark_recv = exchange(std::move(mark_send));
      if (expired()) return false;
      std::uint64_t fresh = 0;
      for (const Bytes& buffer : mark_recv) {
        std::size_t offset = 0;
        while (offset < buffer.size()) {
          const NodeId from = wire::get<std::uint64_t>(buffer, offset);
          const NodeId to = wire::get<std::uint64_t>(buffer, offset);
          const auto it = adj_.find(from);
          if (it == adj_.end()) continue;
          for (OverlapEdge& edge : it->second) {
            if (edge.to == to && !edge.reduced) {
              edge.reduced = true;
              ++fresh;
            }
          }
        }
      }
      const auto fresh_global =
          static_cast<std::uint64_t>(rank_.allreduce_sum(static_cast<double>(fresh)));
      if (expired()) return false;
      local_reduced += fresh;
      global_reduced_ += fresh_global;
      if (fresh_global == 0) return true;
    }
  }

  bool prune() {
    // Serial prune_best_overlap, sharded: an edge survives only as its
    // from-node's best out-edge AND as the mirror node's best out-edge.
    // best_out of remote mirror nodes arrives via one pull round.
    std::unordered_map<NodeId, NodeId> best_out;
    for (const auto& [u, list] : adj_) {
      const OverlapEdge* best = nullptr;
      for (const OverlapEdge& edge : list) {
        if (edge.reduced) continue;
        if (best == nullptr || edge.overlap > best->overlap ||
            (edge.overlap == best->overlap && edge.to < best->to)) {
          best = &edge;
        }
      }
      if (best != nullptr) best_out.emplace(u, best->to);
    }
    std::unordered_set<NodeId> remote;
    for (const auto& [u, list] : adj_) {
      for (const OverlapEdge* edge : live(list)) {
        const NodeId mirror = graph::node_complement(edge->to);
        if (node_owner(mirror) != me_) remote.insert(mirror);
      }
    }
    std::vector<NodeId> needed(remote.begin(), remote.end());
    std::sort(needed.begin(), needed.end());
    std::vector<Bytes> requests(nranks_);
    for (const NodeId node : needed) wire::put<std::uint64_t>(requests[node_owner(node)], node);
    const auto request_recv = exchange(std::move(requests));
    if (expired()) return false;
    constexpr NodeId kNone = static_cast<NodeId>(-1);
    std::vector<Bytes> replies(nranks_);
    for (rt::RankId src = 0; src < request_recv.size(); ++src) {
      std::size_t offset = 0;
      while (offset < request_recv[src].size()) {
        const NodeId node = wire::get<std::uint64_t>(request_recv[src], offset);
        const auto it = best_out.find(node);
        wire::put<std::uint64_t>(replies[src], node);
        wire::put<std::uint64_t>(replies[src], it == best_out.end() ? kNone : it->second);
      }
    }
    const auto reply_recv = exchange(std::move(replies));
    if (expired()) return false;
    std::unordered_map<NodeId, NodeId> remote_best;
    for (const Bytes& buffer : reply_recv) {
      std::size_t offset = 0;
      while (offset < buffer.size()) {
        const NodeId node = wire::get<std::uint64_t>(buffer, offset);
        remote_best.emplace(node, wire::get<std::uint64_t>(buffer, offset));
      }
    }
    auto best_of = [&](NodeId node) -> NodeId {
      if (node_owner(node) == me_) {
        const auto it = best_out.find(node);
        return it == best_out.end() ? kNone : it->second;
      }
      const auto it = remote_best.find(node);
      return it == remote_best.end() ? kNone : it->second;
    };
    std::uint64_t removed = 0;
    for (auto& [u, list] : adj_) {
      for (OverlapEdge& edge : list) {
        if (edge.reduced) continue;
        const bool is_best_out = best_of(u) == edge.to;
        const bool is_best_in =
            best_of(graph::node_complement(edge.to)) == graph::node_complement(u);
        if (!is_best_out || !is_best_in) {
          edge.reduced = true;
          ++removed;
        }
      }
    }
    const auto removed_global =
        static_cast<std::uint64_t>(rank_.allreduce_sum(static_cast<double>(removed)));
    if (expired()) return false;
    local_reduced += removed;
    global_reduced_ += removed_global;
    return true;
  }

  std::optional<graph::AssemblyResult> contigs() {
    // Candidate unitig steps: owned nodes with exactly one live out-edge.
    // Whether the step is unambiguous also needs in_degree(to) == 1, i.e.
    // out_degree(~to) == 1 — a degree pull across rank boundaries (the
    // boundary-node handoff).
    struct Candidate {
      NodeId from;
      NodeId to;
      std::uint32_t overlap;
    };
    std::vector<Candidate> candidates;
    for (const auto& [u, list] : adj_) {
      const auto targets = live(list);
      if (targets.size() != 1) continue;
      candidates.push_back(Candidate{u, targets.front()->to, targets.front()->overlap});
    }
    std::unordered_set<NodeId> remote;
    for (const Candidate& candidate : candidates) {
      const NodeId mirror = graph::node_complement(candidate.to);
      if (node_owner(mirror) != me_) remote.insert(mirror);
    }
    std::vector<NodeId> needed(remote.begin(), remote.end());
    std::sort(needed.begin(), needed.end());
    std::vector<Bytes> requests(nranks_);
    for (const NodeId node : needed) wire::put<std::uint64_t>(requests[node_owner(node)], node);
    const auto request_recv = exchange(std::move(requests));
    if (expired()) return std::nullopt;
    std::vector<Bytes> replies(nranks_);
    for (rt::RankId src = 0; src < request_recv.size(); ++src) {
      std::size_t offset = 0;
      while (offset < request_recv[src].size()) {
        const NodeId node = wire::get<std::uint64_t>(request_recv[src], offset);
        const auto it = adj_.find(node);
        const std::uint64_t degree = it == adj_.end() ? 0 : live(it->second).size();
        wire::put<std::uint64_t>(replies[src], node);
        wire::put<std::uint64_t>(replies[src], degree);
      }
    }
    const auto reply_recv = exchange(std::move(replies));
    if (expired()) return std::nullopt;
    std::unordered_map<NodeId, std::uint64_t> remote_degree;
    for (const Bytes& buffer : reply_recv) {
      std::size_t offset = 0;
      while (offset < buffer.size()) {
        const NodeId node = wire::get<std::uint64_t>(buffer, offset);
        remote_degree.emplace(node, wire::get<std::uint64_t>(buffer, offset));
      }
    }
    auto degree_of = [&](NodeId node) -> std::uint64_t {
      if (node_owner(node) == me_) {
        const auto it = adj_.find(node);
        return it == adj_.end() ? 0 : live(it->second).size();
      }
      const auto it = remote_degree.find(node);
      return it == remote_degree.end() ? 0 : it->second;
    };
    std::vector<graph::UnitigStep> steps;
    for (const Candidate& candidate : candidates) {
      if (degree_of(graph::node_complement(candidate.to)) != 1) continue;
      steps.push_back(graph::UnitigStep{candidate.from, candidate.to, candidate.overlap});
    }

    // Gather live edges + resolved steps to the root, which replays the
    // serial walk (graph::unitigs_from_steps) and the shared GFA writer.
    Bytes local;
    std::vector<OverlapEdge> my_edges;
    for (const auto& [u, list] : adj_)
      for (const OverlapEdge* edge : live(list)) my_edges.push_back(*edge);
    wire::put<std::uint64_t>(local, my_edges.size());
    for (const OverlapEdge& edge : my_edges) put_edge(local, edge);
    wire::put<std::uint64_t>(local, steps.size());
    for (const graph::UnitigStep& step : steps) {
      wire::put<std::uint64_t>(local, step.from);
      wire::put<std::uint64_t>(local, step.to);
      wire::put<std::uint32_t>(local, step.overlap);
    }
    sent_bytes += local.size();
    const auto gathered = rank_.gather(std::move(local), root());
    if (expired()) return std::nullopt;

    Bytes packed;
    if (me_ == root()) {
      std::vector<OverlapEdge> all_edges;
      std::vector<graph::UnitigStep> all_steps;
      for (const Bytes& buffer : gathered) {
        if (buffer.empty()) continue;
        std::size_t offset = 0;
        const auto n_edges = wire::get<std::uint64_t>(buffer, offset);
        for (std::uint64_t i = 0; i < n_edges; ++i)
          all_edges.push_back(get_edge(buffer, offset));
        const auto n_steps = wire::get<std::uint64_t>(buffer, offset);
        for (std::uint64_t i = 0; i < n_steps; ++i) {
          graph::UnitigStep step;
          step.from = wire::get<std::uint64_t>(buffer, offset);
          step.to = wire::get<std::uint64_t>(buffer, offset);
          step.overlap = wire::get<std::uint32_t>(buffer, offset);
          all_steps.push_back(step);
        }
      }
      // Canonical listing order — identical to OverlapGraph::live_edges().
      std::sort(all_edges.begin(), all_edges.end(),
                [](const OverlapEdge& x, const OverlapEdge& y) {
                  if (x.from != y.from) return x.from < y.from;
                  return graph::edge_order(x, y);
                });
      graph::AssemblyResult result;
      result.graph_stats.reads = read_lengths_.size();
      result.graph_stats.contained = contained_count_;
      result.graph_stats.dovetail_edges = global_edges_;
      result.graph_stats.reduced_edges = global_reduced_;
      result.contained = contained_;
      result.edges = std::move(all_edges);
      result.contigs = graph::unitigs_from_steps(read_lengths_.size(), contained_,
                                                 all_steps, read_lengths_);
      result.stats = graph::assembly_stats(result.contigs);
      std::ostringstream gfa;
      graph::write_gfa(gfa, read_lengths_.size(), result.contained, result.edges, reads_,
                       options_.assembly.gfa);
      result.gfa = gfa.str();
      packed = pack_assembly(result);
    }
    sent_bytes += me_ == root() ? packed.size() : 0;
    const Bytes shared = rank_.broadcast(std::move(packed), root());
    if (expired()) return std::nullopt;
    return unpack_assembly(shared);
  }

  rt::Rank& rank_;
  const seq::ReadStore& reads_;
  std::span<const std::size_t> read_lengths_;
  const DistributedAssemblyOptions& options_;
  std::size_t nranks_;
  rt::RankId me_;
  std::uint64_t epoch_;
  std::vector<char> alive_;
  proto::OwnerMap omap_;

  std::vector<align::AlignmentRecord> region_;
  std::vector<bool> contained_;
  std::unordered_map<NodeId, std::vector<OverlapEdge>> adj_;
  std::uint64_t contained_count_ = 0;
  std::uint64_t global_edges_ = 0;
  std::uint64_t global_reduced_ = 0;
  std::uint64_t rounds_ = 0;
};

}  // namespace

DistributedAssembly run_distributed_assembly(rt::Rank& rank, const seq::ReadStore& reads,
                                             const std::vector<seq::ReadId>& bounds,
                                             std::span<const align::AlignmentRecord> records,
                                             const DistributedAssemblyOptions& options) {
  GNB_CHECK(bounds.size() == rank.nranks() + 1);
  GNB_CHECK(bounds.front() == 0 && bounds.back() == reads.size());
  GNB_CHECK(reads.size() < (std::uint64_t{1} << 31));  // node ids must fit the pull wire

  std::vector<std::size_t> read_lengths(reads.size());
  for (seq::ReadId id = 0; id < reads.size(); ++id)
    read_lengths[id] = reads.get(id).length();

  const bool chaos = rank.faults() != nullptr;
  DistributedAssembly out;

  // A restarted rank arrives with empty volatile state but its durable
  // record manifest intact (identical bytes — the shard is a pure function
  // of the phase input — so no rewrite). It parks at the attempt boundary:
  // re-admitted there, it joins the survivors' next attempt as a full
  // member; abandoned (the phase wound down, or the last attempt succeeded
  // without a membership change), it unwinds empty-handed — the survivors
  // already merged its region from the manifest, so output is unchanged.
  bool admitted_this_attempt = false;
  if (chaos && rank.rejoining()) {
    if (!rank.admitting_barrier(rt::Rank::kAdmitGraph)) return out;
    admitted_this_attempt = true;  // the admission gate was this attempt's boundary
  } else {
    // Persist this rank's records before the first crash point: from here
    // on the global record multiset survives any death, and every attempt
    // below is a pure function of it.
    rank.fault_counters().checkpoint_bytes +=
        rank.durable().write_manifest(rank.id(), pack_records(records));
  }

  std::uint64_t attempts = 0;
  while (true) {
    if (admitted_this_attempt) {
      admitted_this_attempt = false;  // survivors passed this gate already
    } else if (chaos) {
      // Attempt boundary doubles as the admission point for restarted
      // ranks. Live ranks always pass.
      (void)rank.admitting_barrier(rt::Rank::kAdmitGraph);
    } else {
      rank.barrier();  // crash point; stamps the agreed (epoch, alive) pair
    }
    if (chaos) {
      // Agree on the attempt count (a comeback starts from zero), so the
      // bounded-recovery give-up below is unanimous — World::run requires
      // UnrecoverableError to be thrown by every alive rank.
      attempts = static_cast<std::uint64_t>(
          rank.allreduce_max(static_cast<double>(attempts + 1)));
      if (options.proto.max_recovery_attempts != 0 &&
          attempts > options.proto.max_recovery_attempts) {
        std::ostringstream msg;
        msg << "assembly attempt loop did not converge after "
            << options.proto.max_recovery_attempts
            << " membership changes (max_recovery_attempts)";
        throw UnrecoverableError(msg.str());
      }
    } else {
      ++attempts;
    }
    Attempt attempt(rank, reads, bounds, read_lengths, options);
    auto result = attempt.run();
    if (!result.has_value()) continue;  // membership changed: restart

    out.result = std::move(*result);
    out.root = attempt.root();
    out.restarts = attempts - 1;
    out.reduce_rounds = attempt.rounds();
    auto& metrics = rank.metrics();
    metrics.add(obs::metric::kGraphEdges, attempt.local_edges);
    metrics.add(obs::metric::kGraphReduced, attempt.local_reduced);
    metrics.gauge_max(obs::metric::kGraphReduceRounds, attempt.rounds());
    metrics.gauge_max(obs::metric::kGraphRestarts, out.restarts);
    metrics.add(obs::metric::kExchangeBytes, attempt.sent_bytes);
    metrics.add(obs::metric::kExchangeMessages, attempt.pull_messages);
    if (rank.id() == out.root) metrics.add(obs::metric::kGraphContigs, out.result.stats.contigs);
    rank.fault_counters().checkpoint_bytes +=
        rank.durable().append_log(rank.id(), pack_records({}));
    return out;
  }
}

}  // namespace gnb::pipeline
