#pragma once
// Distributed phases 4-6: string graph construction, transitive reduction,
// and contig generation over rt::World, proven byte-identical to the serial
// oracle (graph::assemble_serial) at any rank count, engine, thread count,
// and under crash injection.
//
// Protocol (DESIGN.md §12):
//
//   * Phase entry persists every rank's accepted alignment records to its
//     durable manifest *before the first crash point*, so the global record
//     multiset survives any subsequent death. The final output is a pure
//     function of that multiset — this is what makes crash recovery
//     byte-exact rather than merely approximate.
//   * Each attempt opens with a barrier and captures the agreed
//     (epoch, alive) stamp; a proto::OwnerMap maps every read to a live
//     owner (dead ranks' intervals are adopted deterministically). After
//     every collective, ranks compare the stamp: a membership change makes
//     all survivors abandon the attempt in unison and restart from the
//     manifests — exactly-once edge contribution by recomputation.
//   * Build: containment union exchange, then each record's directed edge
//     and its mirror (~v→~u) are routed to the owner of their from-node.
//   * Reduction: snapshot rounds to a fixpoint. Per round, each rank pulls
//     the live adjacency of remote witness nodes (proto::batch_pulls /
//     proto::RequestWindow batching), computes Myers marks for the nodes it
//     owns, exchanges mirror marks, applies, and allreduces the fresh
//     count; a zero round terminates. Marks are a pure function of the
//     round-entry snapshot, so serial and distributed rounds coincide.
//   * Contigs: each rank resolves its own unambiguous unitig steps (one
//     degree pull for in-degrees across rank boundaries — the boundary-node
//     handoff), steps and live edges are gathered to the lowest alive rank,
//     which replays graph::unitigs_from_steps and the shared GFA writer,
//     then broadcasts the full result so every survivor returns identical
//     bytes.
//
// Constraint: run this in its own World::run body (manifest slots are
// per-rank per-run; an earlier phase's crashes would leave foreign bytes in
// the slots this phase adopts from).

#include <cstdint>
#include <span>
#include <vector>

#include "align/result.hpp"
#include "graph/assembly.hpp"
#include "proto/config.hpp"
#include "rt/world.hpp"
#include "seq/read_store.hpp"

namespace gnb::pipeline {

struct DistributedAssemblyOptions {
  /// Graph knobs, shared verbatim with the serial oracle.
  graph::AssemblyOptions assembly;
  /// Coordination knobs (async_batch / async_window drive the witness-pull
  /// batching).
  proto::ProtoConfig proto;
};

struct DistributedAssembly {
  /// Identical on every surviving rank (broadcast from `root`), and
  /// byte-identical to graph::assemble_serial over the union of records.
  graph::AssemblyResult result;
  /// Rank that replayed the contig walk and emitted stats + GFA (lowest
  /// alive rank of the final attempt).
  rt::RankId root = 0;
  /// Attempts abandoned due to membership changes.
  std::uint64_t restarts = 0;
  /// Snapshot rounds the reduction fixpoint took (final attempt).
  std::uint64_t reduce_rounds = 0;
};

/// SPMD entry point: call from every rank of a World::run body. `bounds`
/// is the read partition (nranks+1 boundaries); `records` is this rank's
/// share of accepted alignments — any sharding whose union is the full
/// record multiset yields the same result. Collective: every alive rank
/// must call with the same bounds/options.
DistributedAssembly run_distributed_assembly(rt::Rank& rank, const seq::ReadStore& reads,
                                             const std::vector<seq::ReadId>& bounds,
                                             std::span<const align::AlignmentRecord> records,
                                             const DistributedAssemblyOptions& options = {});

/// Flat little-endian serialization of a full AssemblyResult — the root's
/// broadcast format.
rt::Bytes pack_assembly(const graph::AssemblyResult& result);
graph::AssemblyResult unpack_assembly(const rt::Bytes& in);

}  // namespace gnb::pipeline
