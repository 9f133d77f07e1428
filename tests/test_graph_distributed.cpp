// The serial-oracle harness for the distributed graph phases: every result
// pipeline::run_distributed_assembly produces — edge listing, reduced edge
// set, contig paths, assembly stats, and the GFA text — must be
// *byte-identical* to graph::assemble_serial over the same record multiset,
// at any rank count, any record sharding, either overlap engine, and under
// crash injection. The suite also pins the transitive reduction against an
// independent brute-force reference and property-tests the Myers
// invariants on random mirror-symmetric graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "align/result.hpp"
#include "core/async.hpp"
#include "core/bsp.hpp"
#include "graph/assembly.hpp"
#include "graph/overlap_graph.hpp"
#include "pipeline/assembly.hpp"
#include "pipeline/pipeline.hpp"
#include "rt/fault.hpp"
#include "rt/world.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wl/presets.hpp"

using namespace gnb;
using graph::NodeId;
using graph::OverlapEdge;

// ThreadSanitizer slows the alignment compute producing the input records
// by an order of magnitude; shrink the genomes there so the rank x engine
// x chaos matrix stays runnable in CI.
#if defined(__SANITIZE_THREAD__)
#define GNB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GNB_TSAN_BUILD 1
#endif
#endif

namespace {

struct Workload {
  wl::SampledDataset dataset;
  std::vector<align::AlignmentRecord> records;  // sorted union, all ranks
};

/// Synthesize a dataset and produce its accepted-alignment records with one
/// engine run — the record multiset both the oracle and the distributed
/// phases consume.
Workload make_workload(std::uint64_t seed, bool async_engine = false,
                       std::size_t engine_ranks = 4, std::size_t genome_length = 0) {
  Workload w;
  wl::DatasetSpec spec = wl::ecoli30x_spec();
#ifdef GNB_TSAN_BUILD
  spec.genome.length = genome_length ? genome_length : 2'500;
#else
  spec.genome.length = genome_length ? genome_length : 8'000;
#endif
  w.dataset = wl::synthesize(spec, seed);
  pipeline::PipelineConfig config;
  config.k = spec.k;
  config.lo = 2;
  config.hi = 8;
  const pipeline::TaskSet tasks =
      pipeline::run_serial(w.dataset.reads, config, engine_ranks);
  rt::World world(engine_ranks);
  std::vector<core::EngineResult> results(engine_ranks);
  const core::EngineConfig engine;
  world.run([&](rt::Rank& rank) {
    results[rank.id()] = async_engine
                             ? core::async_align(rank, w.dataset.reads, tasks.bounds,
                                                 tasks.per_rank[rank.id()], engine)
                             : core::bsp_align(rank, w.dataset.reads, tasks.bounds,
                                               tasks.per_rank[rank.id()], engine);
  });
  for (const auto& result : results)
    w.records.insert(w.records.end(), result.accepted.begin(), result.accepted.end());
  std::sort(w.records.begin(), w.records.end(),
            [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
              return std::tie(x.read_a, x.read_b) < std::tie(y.read_a, y.read_b);
            });
  return w;
}

/// Shard the record union by the partition owner of read_a — the sharding
/// the real pipeline produces.
std::vector<std::vector<align::AlignmentRecord>> shard_by_owner(
    const std::vector<align::AlignmentRecord>& records,
    const std::vector<seq::ReadId>& bounds) {
  std::vector<std::vector<align::AlignmentRecord>> shards(bounds.size() - 1);
  for (const align::AlignmentRecord& record : records) {
    const auto it = std::upper_bound(bounds.begin(), bounds.end(), record.read_a);
    shards[static_cast<std::size_t>(it - bounds.begin()) - 1].push_back(record);
  }
  return shards;
}

/// Outcome of one distributed run: the broadcast result (identical on every
/// surviving rank — asserted) plus the recovery counters.
struct DistributedOutcome {
  graph::AssemblyResult result;
  std::uint64_t restarts = 0;
  std::uint64_t reduce_rounds = 0;
};

DistributedOutcome run_distributed(const Workload& w, std::size_t ranks,
                                   std::vector<std::vector<align::AlignmentRecord>> shards,
                                   const rt::FaultPlan& plan = {},
                                   const pipeline::DistributedAssemblyOptions& options = {}) {
  const std::vector<seq::ReadId> bounds = pipeline::compute_bounds(w.dataset.reads, ranks);
  EXPECT_EQ(shards.size(), ranks);
  rt::World world(ranks);
  if (plan.enabled()) world.set_faults(plan);
  std::vector<pipeline::DistributedAssembly> per_rank(ranks);
  world.run([&](rt::Rank& rank) {
    per_rank[rank.id()] = pipeline::run_distributed_assembly(
        rank, w.dataset.reads, bounds, shards[rank.id()], options);
  });
  DistributedOutcome outcome;
  bool found = false;
  for (const pipeline::DistributedAssembly& a : per_rank) {
    if (a.result.gfa.empty()) continue;  // crashed rank: default-constructed slot
    if (!found) {
      outcome.result = a.result;
      outcome.restarts = a.restarts;
      outcome.reduce_rounds = a.reduce_rounds;
      found = true;
    } else {
      // Broadcast contract: every survivor holds the byte-identical result.
      EXPECT_TRUE(a.result == outcome.result) << "survivor results diverge";
    }
  }
  EXPECT_TRUE(found) << "no rank survived";
  return outcome;
}

void expect_assembly_equal(const graph::AssemblyResult& got,
                           const graph::AssemblyResult& want, const std::string& label) {
  EXPECT_TRUE(got.graph_stats == want.graph_stats) << label << ": graph stats diverge";
  EXPECT_EQ(got.contained, want.contained) << label << ": containment diverges";
  ASSERT_EQ(got.edges.size(), want.edges.size()) << label << ": edge count diverges";
  for (std::size_t i = 0; i < want.edges.size(); ++i)
    ASSERT_TRUE(got.edges[i] == want.edges[i]) << label << ": edge " << i << " diverges";
  ASSERT_EQ(got.contigs.size(), want.contigs.size()) << label << ": contig count diverges";
  for (std::size_t i = 0; i < want.contigs.size(); ++i)
    ASSERT_TRUE(got.contigs[i] == want.contigs[i]) << label << ": contig " << i;
  EXPECT_TRUE(got.stats == want.stats) << label << ": assembly stats diverge";
  EXPECT_EQ(got.gfa, want.gfa) << label << ": GFA bytes diverge";
  EXPECT_TRUE(got == want) << label;  // and the full struct, for new fields
}

}  // namespace

// --- oracle parity across rank counts ---

TEST(GraphDistributed, MatchesSerialOracleAtEveryRankCount) {
  const Workload w = make_workload(11);
  const graph::AssemblyResult oracle = graph::assemble_serial(w.records, w.dataset.reads);
  for (const std::size_t ranks : {1u, 2u, 4u, 8u}) {
    const std::vector<seq::ReadId> bounds =
        pipeline::compute_bounds(w.dataset.reads, ranks);
    const DistributedOutcome outcome =
        run_distributed(w, ranks, shard_by_owner(w.records, bounds));
    expect_assembly_equal(outcome.result, oracle, "ranks=" + std::to_string(ranks));
    EXPECT_EQ(outcome.restarts, 0u);
    EXPECT_GE(outcome.reduce_rounds, 1u);
  }
}

TEST(GraphDistributed, PrunedAssemblyAlsoMatchesOracle) {
  const Workload w = make_workload(12);
  graph::AssemblyOptions assembly;
  assembly.prune = true;
  const graph::AssemblyResult oracle =
      graph::assemble_serial(w.records, w.dataset.reads, assembly);
  pipeline::DistributedAssemblyOptions options;
  options.assembly = assembly;
  for (const std::size_t ranks : {2u, 4u}) {
    const std::vector<seq::ReadId> bounds =
        pipeline::compute_bounds(w.dataset.reads, ranks);
    const DistributedOutcome outcome =
        run_distributed(w, ranks, shard_by_owner(w.records, bounds), {}, options);
    expect_assembly_equal(outcome.result, oracle,
                          "pruned ranks=" + std::to_string(ranks));
  }
}

// --- sharding invariance: any sharding with the same union is equivalent ---

TEST(GraphDistributed, RecordShardingDoesNotAffectResult) {
  const Workload w = make_workload(13);
  const std::size_t ranks = 4;
  const std::vector<seq::ReadId> bounds = pipeline::compute_bounds(w.dataset.reads, ranks);
  const DistributedOutcome by_owner =
      run_distributed(w, ranks, shard_by_owner(w.records, bounds));
  // Round-robin sharding: maximally misaligned with the owner map.
  std::vector<std::vector<align::AlignmentRecord>> round_robin(ranks);
  for (std::size_t i = 0; i < w.records.size(); ++i)
    round_robin[i % ranks].push_back(w.records[i]);
  const DistributedOutcome scattered = run_distributed(w, ranks, std::move(round_robin));
  expect_assembly_equal(scattered.result, by_owner.result, "round-robin sharding");
  // Everything-on-one-rank sharding.
  std::vector<std::vector<align::AlignmentRecord>> lopsided(ranks);
  lopsided[ranks - 1] = w.records;
  const DistributedOutcome one_rank = run_distributed(w, ranks, std::move(lopsided));
  expect_assembly_equal(one_rank.result, by_owner.result, "single-shard sharding");
}

// --- engine independence ---

TEST(GraphDistributed, BothEnginesFeedIdenticalAssemblies) {
  const Workload bsp = make_workload(14, /*async_engine=*/false);
  const Workload async = make_workload(14, /*async_engine=*/true);
  // Backend parity upstream: the engines accept the same records, so the
  // assemblies must be byte-identical end to end.
  const graph::AssemblyResult oracle_bsp =
      graph::assemble_serial(bsp.records, bsp.dataset.reads);
  const graph::AssemblyResult oracle_async =
      graph::assemble_serial(async.records, async.dataset.reads);
  expect_assembly_equal(oracle_async, oracle_bsp, "engine oracle");
  const std::vector<seq::ReadId> bounds = pipeline::compute_bounds(bsp.dataset.reads, 4);
  const DistributedOutcome from_async =
      run_distributed(async, 4, shard_by_owner(async.records, bounds));
  expect_assembly_equal(from_async.result, oracle_bsp, "async-engine records");
}

// --- crash injection: exactly-once contribution, unchanged bytes ---

TEST(GraphDistributed, CrashDuringGraphPhasesRecoversByteIdentical) {
  const Workload w = make_workload(15);
  const graph::AssemblyResult oracle = graph::assemble_serial(w.records, w.dataset.reads);
  const std::size_t ranks = 4;
  const std::vector<seq::ReadId> bounds = pipeline::compute_bounds(w.dataset.reads, ranks);
  // Crash steps chosen to land in different phases: the attempt barrier
  // region (build), the reduction rounds, and the contig collectives.
  struct Plan {
    const char* spec;
    // A death at the attempt-entry barrier (step 0) needs no restart: the
    // first attempt already opens with the post-death membership. Any
    // later step lands mid-attempt and must force one.
    std::uint64_t min_restarts;
  };
  const Plan plans[] = {
      {"seed=21,crash@1:0", 0},            // dies at the very first collective
      {"seed=22,crash@2:3", 1},            // dies during build
      {"seed=23,crash@0:7", 1},            // dies in the reduction rounds
      {"seed=24,crash@3:2,crash@1:9", 1},  // two deaths, different attempts
  };
  for (const Plan& plan : plans) {
    const DistributedOutcome outcome = run_distributed(
        w, ranks, shard_by_owner(w.records, bounds), rt::FaultPlan::parse(plan.spec));
    expect_assembly_equal(outcome.result, oracle, std::string("faults ") + plan.spec);
    EXPECT_GE(outcome.restarts, plan.min_restarts) << plan.spec;
  }
}

TEST(GraphDistributed, RestartedRankRejoinsAssemblyByteIdentical) {
  // A rank dies mid-build and comes back with empty volatile state: the
  // attempt loop re-admits it at an attempt boundary, where each attempt
  // rebuilds purely from durable manifests — so the rejoiner contributes
  // cleanly and the assembly stays byte-identical to the oracle.
  const Workload w = make_workload(17);
  const graph::AssemblyResult oracle = graph::assemble_serial(w.records, w.dataset.reads);
  const std::size_t ranks = 4;
  const std::vector<seq::ReadId> bounds = pipeline::compute_bounds(w.dataset.reads, ranks);
  const DistributedOutcome outcome =
      run_distributed(w, ranks, shard_by_owner(w.records, bounds),
                      rt::FaultPlan::parse("seed=26,crash@1:3,restart@1:0"));
  expect_assembly_equal(outcome.result, oracle, "restart during build");
  EXPECT_GE(outcome.restarts, 1u);
}

TEST(GraphDistributed, AttemptLoopIsBoundedByConfiguredAttempts) {
  // With max_recovery_attempts = 1, the membership change forced by a
  // mid-attempt death exceeds the budget: every alive rank throws the
  // typed UnrecoverableError unanimously instead of restarting forever.
  const Workload w = make_workload(18);
  const std::size_t ranks = 4;
  const std::vector<seq::ReadId> bounds = pipeline::compute_bounds(w.dataset.reads, ranks);
  const auto shards = shard_by_owner(w.records, bounds);
  pipeline::DistributedAssemblyOptions options;
  options.proto.max_recovery_attempts = 1;
  rt::World world(ranks);
  world.set_faults(rt::FaultPlan::parse("seed=27,crash@2:3"));
  std::vector<pipeline::DistributedAssembly> per_rank(ranks);
  EXPECT_THROW(world.run([&](rt::Rank& rank) {
    per_rank[rank.id()] = pipeline::run_distributed_assembly(
        rank, w.dataset.reads, bounds, shards[rank.id()], options);
  }),
               gnb::UnrecoverableError);
}

TEST(GraphDistributed, ChaosWithoutCrashLeavesBytesUnchanged) {
  const Workload w = make_workload(16);
  const graph::AssemblyResult oracle = graph::assemble_serial(w.records, w.dataset.reads);
  const std::vector<seq::ReadId> bounds = pipeline::compute_bounds(w.dataset.reads, 4);
  const DistributedOutcome outcome =
      run_distributed(w, 4, shard_by_owner(w.records, bounds),
                      rt::FaultPlan::parse("seed=31,straggle=0.3:200"));
  expect_assembly_equal(outcome.result, oracle, "straggle chaos");
  EXPECT_EQ(outcome.restarts, 0u);
}

// --- randomized fuzz sweep ---

TEST(GraphDistributed, FuzzParityAcrossSeedsAndRankCounts) {
#ifdef GNB_TSAN_BUILD
  constexpr std::uint64_t kTrials = 2;
#else
  constexpr std::uint64_t kTrials = 5;
#endif
  const std::size_t rank_choices[] = {1, 2, 4, 8};
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    Xoshiro256 rng(0x6A5FULL * (trial + 1));
    const std::size_t ranks = rank_choices[rng.below(4)];
#ifdef GNB_TSAN_BUILD
    const std::size_t genome = 2'000 + 500 * rng.below(4);
#else
    const std::size_t genome = 5'000 + 1'500 * rng.below(4);
#endif
    const Workload w = make_workload(40 + trial, /*async_engine=*/false, 4, genome);
    const graph::AssemblyResult oracle =
        graph::assemble_serial(w.records, w.dataset.reads);
    const std::vector<seq::ReadId> bounds =
        pipeline::compute_bounds(w.dataset.reads, ranks);
    const DistributedOutcome outcome =
        run_distributed(w, ranks, shard_by_owner(w.records, bounds));
    expect_assembly_equal(outcome.result, oracle,
                          "trial=" + std::to_string(trial) +
                              " ranks=" + std::to_string(ranks));
  }
}

// --- round-trip of the broadcast format ---

TEST(GraphDistributed, PackUnpackRoundTripsTheResult) {
  const Workload w = make_workload(17);
  const graph::AssemblyResult oracle = graph::assemble_serial(w.records, w.dataset.reads);
  const rt::Bytes packed = pipeline::pack_assembly(oracle);
  const graph::AssemblyResult back = pipeline::unpack_assembly(packed);
  expect_assembly_equal(back, oracle, "pack/unpack");
}

// --- brute-force transitive-reduction oracle ---

namespace {

/// Mirror-symmetric random graph: every generated edge is inserted with its
/// mirror, unique (from, to) keys, no self/same-read targets.
std::vector<OverlapEdge> random_symmetric_edges(Xoshiro256& rng, std::size_t n_reads,
                                                std::size_t target_edges) {
  std::set<std::pair<NodeId, NodeId>> keys;
  std::vector<OverlapEdge> edges;
  for (std::size_t attempt = 0; attempt < target_edges * 4; ++attempt) {
    if (edges.size() >= 2 * target_edges) break;
    const NodeId u = rng.below(2 * n_reads);
    const NodeId v = rng.below(2 * n_reads);
    if (graph::node_read(u) == graph::node_read(v)) continue;
    const NodeId mu = graph::node_complement(v), mv = graph::node_complement(u);
    if (keys.count({u, v}) || keys.count({mu, mv})) continue;
    const auto overlap = static_cast<std::uint32_t>(60 + rng.below(400));
    const auto score = static_cast<std::int32_t>(overlap);
    edges.push_back(OverlapEdge{u, v, overlap, score, false});
    edges.push_back(OverlapEdge{mu, mv, overlap, score, false});
    keys.insert({u, v});
    keys.insert({mu, mv});
  }
  return edges;
}

/// Independent O(V * E^2) reference of the snapshot-round reduction: per
/// round, scan every live edge u->w for a live witness chain u->v->w under
/// the Myers condition, mirror-close the marks, apply, repeat to fixpoint.
std::set<std::pair<NodeId, NodeId>> reference_reduce(std::size_t n_reads,
                                                     std::vector<OverlapEdge> edges,
                                                     std::uint32_t fuzz) {
  std::set<std::pair<NodeId, NodeId>> reduced;
  const auto live = [&](NodeId from, NodeId to) {
    return reduced.count({from, to}) == 0;
  };
  const auto overlap_of = [&](NodeId from, NodeId to) -> std::uint32_t {
    for (const OverlapEdge& e : edges)
      if (e.from == from && e.to == to) return e.overlap;
    ADD_FAILURE() << "missing edge";
    return 0;
  };
  (void)n_reads;
  while (true) {
    std::vector<std::pair<NodeId, NodeId>> marks;
    for (const OverlapEdge& uw : edges) {
      if (!live(uw.from, uw.to)) continue;
      for (const OverlapEdge& uv : edges) {
        if (uv.from != uw.from || uv.to == uw.to || !live(uv.from, uv.to)) continue;
        for (const OverlapEdge& vw : edges) {
          if (vw.from != uv.to || vw.to != uw.to || !live(vw.from, vw.to)) continue;
          if (graph::node_read(vw.to) == graph::node_read(uw.from)) continue;
          if (overlap_of(uw.from, uw.to) <= uv.overlap + fuzz)
            marks.emplace_back(uw.from, uw.to);
        }
      }
    }
    std::size_t fresh = 0;
    for (const auto& [u, w] : marks) {
      fresh += reduced.insert({u, w}).second ? 1 : 0;
      fresh += reduced
                       .insert({graph::node_complement(w), graph::node_complement(u)})
                       .second
                   ? 1
                   : 0;
    }
    if (fresh == 0) break;
  }
  return reduced;
}

}  // namespace

TEST(TransitiveReductionOracle, MatchesBruteForceOnRandomGraphs) {
  constexpr std::uint64_t kGraphs = 30;
  for (std::uint64_t trial = 0; trial < kGraphs; ++trial) {
    Xoshiro256 rng(0xBEEF + trial);
    const std::size_t n_reads = 4 + rng.below(7);         // 4..10 reads
    const std::size_t target = 3 + rng.below(3 * n_reads);  // sparse..dense
    const std::uint32_t fuzz = trial % 3 == 0 ? 0 : 60;
    const std::vector<OverlapEdge> edges = random_symmetric_edges(rng, n_reads, target);
    graph::OverlapGraph g(n_reads, {}, edges);
    g.reduce_transitive(fuzz);
    const auto want = reference_reduce(n_reads, edges, fuzz);
    // Compare the reduced set edge by edge via the live listing.
    std::set<std::pair<NodeId, NodeId>> live_got;
    for (const OverlapEdge& e : g.live_edges()) live_got.insert({e.from, e.to});
    std::set<std::pair<NodeId, NodeId>> inserted;
    for (const OverlapEdge& e : edges) inserted.insert({e.from, e.to});
    for (const auto& key : inserted) {
      const bool survived = live_got.count(key) > 0;
      const bool reference_survived = want.count(key) == 0;
      EXPECT_EQ(survived, reference_survived)
          << "trial " << trial << " edge " << key.first << "->" << key.second
          << " fuzz " << fuzz;
    }
  }
}

TEST(TransitiveReductionOracle, NoTransitivelyImpliedEdgeSurvives) {
  // Myers fixpoint property: after reduction, no live edge u->w has a live
  // witness chain u->v->w satisfying the reduction condition — one more
  // round would mark nothing.
  constexpr std::uint64_t kGraphs = 20;
  for (std::uint64_t trial = 0; trial < kGraphs; ++trial) {
    Xoshiro256 rng(0xD00D + trial);
    const std::size_t n_reads = 5 + rng.below(6);
    const std::vector<OverlapEdge> edges =
        random_symmetric_edges(rng, n_reads, 2 + 2 * n_reads);
    graph::OverlapGraph g(n_reads, {}, edges);
    g.reduce_transitive(60);
    const std::vector<OverlapEdge> live = g.live_edges();
    for (const OverlapEdge& uw : live) {
      for (const OverlapEdge& uv : live) {
        if (uv.from != uw.from || uv.to == uw.to) continue;
        for (const OverlapEdge& vw : live) {
          if (vw.from != uv.to || vw.to != uw.to) continue;
          if (graph::node_read(vw.to) == graph::node_read(uw.from)) continue;
          EXPECT_GT(uw.overlap, uv.overlap + 60)
              << "trial " << trial << ": live edge " << uw.from << "->" << uw.to
              << " is transitively implied via " << uv.to;
        }
      }
    }
  }
}

TEST(TransitiveReductionOracle, MirrorSymmetryPreserved) {
  constexpr std::uint64_t kGraphs = 20;
  for (std::uint64_t trial = 0; trial < kGraphs; ++trial) {
    Xoshiro256 rng(0xCAFE + trial);
    const std::size_t n_reads = 4 + rng.below(8);
    const std::vector<OverlapEdge> edges =
        random_symmetric_edges(rng, n_reads, 2 + 2 * n_reads);
    graph::OverlapGraph g(n_reads, {}, edges);
    g.reduce_transitive(trial % 2 == 0 ? 0 : 120);
    std::set<std::pair<NodeId, NodeId>> live;
    for (const OverlapEdge& e : g.live_edges()) live.insert({e.from, e.to});
    for (const auto& [from, to] : live)
      EXPECT_TRUE(live.count({graph::node_complement(to), graph::node_complement(from)}))
          << "trial " << trial << ": surviving edge " << from << "->" << to
          << " lost its mirror";
  }
}
