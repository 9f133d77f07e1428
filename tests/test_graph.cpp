// Tests for the overlap/string graph, unitig assembler and PAF I/O.

#include <gtest/gtest.h>

#include <span>
#include <sstream>

#include "align/paf.hpp"
#include "align/xdrop.hpp"
#include "graph/assembler.hpp"
#include "graph/assembly.hpp"
#include "graph/gfa.hpp"
#include "graph/overlap_graph.hpp"
#include "util/error.hpp"
#include "wl/genome.hpp"

using namespace gnb;
using namespace gnb::graph;

namespace {

/// Perfectly tiled, error-free reads over a random genome: every adjacent
/// pair overlaps exactly; the ideal assembly is a single contig.
struct Tiling {
  seq::ReadStore reads;
  std::vector<std::size_t> lengths;
  std::vector<align::AlignmentRecord> records;
  std::size_t genome_length = 0;
};

Tiling make_tiling(std::size_t genome_length = 10'000, std::size_t read_length = 1'000,
                   std::size_t step = 400, std::uint64_t seed = 1) {
  Xoshiro256 rng(seed);
  wl::GenomeParams gp;
  gp.length = genome_length;
  gp.repeat_fraction = 0;
  const seq::Sequence genome = wl::generate_genome(gp, rng);

  Tiling tiling;
  tiling.genome_length = genome_length;
  for (std::size_t pos = 0; pos + read_length <= genome.size(); pos += step) {
    tiling.reads.add(std::string("r").append(std::to_string(tiling.lengths.size())),
                     genome.subseq(pos, read_length));
    tiling.lengths.push_back(read_length);
  }
  // Align each read against the next two (when they still overlap by at
  // least a seed length).
  for (seq::ReadId i = 0; i + 1 < tiling.reads.size(); ++i) {
    for (seq::ReadId j = i + 1; j < tiling.reads.size() && j <= i + 2; ++j) {
      const auto shift = static_cast<std::uint32_t>(step * (j - i));
      if (shift + 17 > read_length) continue;  // no overlap left to seed
      const align::Seed anchor{shift, 0, 17, false};
      const align::Alignment alignment = align::xdrop_align(
          tiling.reads.get(i).sequence, tiling.reads.get(j).sequence, anchor, {});
      tiling.records.push_back(align::AlignmentRecord{i, j, alignment});
    }
  }
  return tiling;
}

}  // namespace

// ---------- node encoding ----------

TEST(Node, EncodingRoundTrip) {
  const NodeId node = make_node(1234, true);
  EXPECT_EQ(node_read(node), 1234u);
  EXPECT_TRUE(node_reverse(node));
  EXPECT_EQ(node_read(node_complement(node)), 1234u);
  EXPECT_FALSE(node_reverse(node_complement(node)));
  EXPECT_EQ(node_complement(node_complement(node)), node);
}

// ---------- graph construction ----------

TEST(OverlapGraph, PerfectTilingHasChainStructure) {
  const Tiling tiling = make_tiling();
  OverlapGraph graph(tiling.records, tiling.lengths, 100, 100, 30);
  EXPECT_EQ(graph.stats().contained, 0u);  // equal lengths: nothing contained
  EXPECT_GT(graph.stats().dovetail_edges, 0u);
}

TEST(OverlapGraph, MirrorSymmetry) {
  const Tiling tiling = make_tiling();
  OverlapGraph graph(tiling.records, tiling.lengths, 100, 100, 30);
  // For every edge u->v, the mirror ~v->~u exists with equal overlap.
  for (seq::ReadId read = 0; read < tiling.reads.size(); ++read) {
    for (const bool reverse : {false, true}) {
      const NodeId u = make_node(read, reverse);
      for (const OverlapEdge& edge : graph.out_edges(u)) {
        bool found = false;
        for (const OverlapEdge& mirror : graph.out_edges(node_complement(edge.to))) {
          if (mirror.to == node_complement(u)) {
            EXPECT_EQ(mirror.overlap, edge.overlap);
            found = true;
          }
        }
        EXPECT_TRUE(found) << "missing mirror edge";
      }
    }
  }
}

TEST(OverlapGraph, InDegreeEqualsComplementOutDegree) {
  const Tiling tiling = make_tiling();
  OverlapGraph graph(tiling.records, tiling.lengths, 100, 100, 30);
  const NodeId node = make_node(3, false);
  EXPECT_EQ(graph.in_degree(node), graph.out_degree(node_complement(node)));
}

TEST(OverlapGraph, ContainmentDetected) {
  // Read 1 strictly inside read 0.
  Xoshiro256 rng(5);
  wl::GenomeParams gp;
  gp.length = 3'000;
  gp.repeat_fraction = 0;
  const seq::Sequence genome = wl::generate_genome(gp, rng);
  seq::ReadStore reads;
  reads.add("big", genome.subseq(0, 2'000));
  reads.add("small", genome.subseq(500, 800));
  const align::Seed anchor{500, 0, 17, false};
  const align::Alignment alignment =
      align::xdrop_align(reads.get(0).sequence, reads.get(1).sequence, anchor, {});
  const std::vector<align::AlignmentRecord> records{{0, 1, alignment}};
  const std::vector<std::size_t> lengths{2'000, 800};
  OverlapGraph graph(records, lengths, 100, 100, 30);
  EXPECT_TRUE(graph.is_contained(1));
  EXPECT_FALSE(graph.is_contained(0));
  EXPECT_EQ(graph.stats().dovetail_edges, 0u);  // containment adds no edge
}

TEST(OverlapGraph, MinOverlapFiltersWeakEdges) {
  const Tiling tiling = make_tiling();
  OverlapGraph strict(tiling.records, tiling.lengths, /*min_overlap=*/500, 100, 30);
  OverlapGraph loose(tiling.records, tiling.lengths, /*min_overlap=*/100, 100, 30);
  // The 200-base next-next overlaps are dropped by the strict threshold.
  EXPECT_LT(strict.stats().dovetail_edges, loose.stats().dovetail_edges);
}

TEST(OverlapGraph, TransitiveReductionRemovesSkipEdges) {
  const Tiling tiling = make_tiling();
  OverlapGraph graph(tiling.records, tiling.lengths, 100, 100, 30);
  const std::size_t before = graph.stats().dovetail_edges;
  const std::size_t removed = graph.reduce_transitive(60);
  EXPECT_GT(removed, 0u);
  EXPECT_LT(removed, before);
  // After reduction, interior nodes keep exactly the step-1 successor.
  const NodeId mid = make_node(5, false);
  EXPECT_EQ(graph.out_degree(mid), 1u);
  EXPECT_EQ(node_read(graph.out_edges(mid).front().to), 6u);
}

TEST(OverlapGraph, ReductionIsIdempotent) {
  const Tiling tiling = make_tiling();
  OverlapGraph graph(tiling.records, tiling.lengths, 100, 100, 30);
  graph.reduce_transitive(60);
  EXPECT_EQ(graph.reduce_transitive(60), 0u);
}

TEST(OverlapGraph, BestOverlapPruneYieldsDegreeAtMostOne) {
  const Tiling tiling = make_tiling();
  OverlapGraph graph(tiling.records, tiling.lengths, 100, 100, 30);
  graph.prune_best_overlap();
  for (seq::ReadId read = 0; read < tiling.reads.size(); ++read) {
    for (const bool reverse : {false, true}) {
      EXPECT_LE(graph.out_degree(make_node(read, reverse)), 1u);
      EXPECT_LE(graph.in_degree(make_node(read, reverse)), 1u);
    }
  }
}

// ---------- assembler ----------

TEST(Assembler, PerfectTilingAssemblesToOneContig) {
  const Tiling tiling = make_tiling();
  OverlapGraph graph(tiling.records, tiling.lengths, 100, 100, 30);
  graph.reduce_transitive(60);
  const auto contigs = extract_unitigs(graph, tiling.lengths);
  const auto stats = assembly_stats(contigs);
  EXPECT_EQ(stats.contigs, 1u);
  EXPECT_EQ(contigs[0].path.size(), tiling.reads.size());
  // Genome 10k, last read ends at 9800+200... contig covers all tiled bases.
  EXPECT_NEAR(static_cast<double>(stats.longest), 9'800.0, 50.0);
}

TEST(Assembler, ContigSequenceMatchesGenomeRegion) {
  const Tiling tiling = make_tiling();
  OverlapGraph graph(tiling.records, tiling.lengths, 100, 100, 30);
  graph.reduce_transitive(60);
  const auto contigs = extract_unitigs(graph, tiling.lengths);
  ASSERT_EQ(contigs.size(), 1u);
  const seq::Sequence sequence = contig_sequence(contigs[0], tiling.reads);
  EXPECT_EQ(sequence.size(), contigs[0].length);
  // Error-free tiling: the contig must reproduce the reads verbatim; check
  // the first read is a prefix (possibly reverse-complemented walk).
  const seq::ReadId first = node_read(contigs[0].path.front());
  seq::Sequence expect = tiling.reads.get(first).sequence;
  if (node_reverse(contigs[0].path.front())) expect = expect.reverse_complement();
  EXPECT_EQ(sequence.subseq(0, expect.size()), expect);
}

TEST(Assembler, EmptyGraphYieldsSingletonContigs) {
  const std::vector<align::AlignmentRecord> no_records;
  const std::vector<std::size_t> lengths{500, 700, 900};
  OverlapGraph graph(no_records, lengths);
  const auto contigs = extract_unitigs(graph, lengths);
  EXPECT_EQ(contigs.size(), 3u);
  const auto stats = assembly_stats(contigs);
  EXPECT_EQ(stats.total_length, 2'100u);
  EXPECT_EQ(stats.longest, 900u);
  // Half of 2100 is 1050; 900 alone is not enough, 900+700 is: N50 = 700.
  EXPECT_EQ(stats.n50, 700u);
}

TEST(Assembler, N50Definition) {
  std::vector<Contig> contigs(4);
  contigs[0].length = 10;
  contigs[1].length = 20;
  contigs[2].length = 30;
  contigs[3].length = 40;  // total 100; sorted desc: 40 (40), 30 (70) -> N50=30
  const auto stats = assembly_stats(contigs);
  EXPECT_EQ(stats.n50, 30u);
}

TEST(Assembler, EveryNonContainedReadUsedOnce) {
  const Tiling tiling = make_tiling(14'000, 1'000, 300, 7);
  OverlapGraph graph(tiling.records, tiling.lengths, 100, 100, 30);
  graph.reduce_transitive(60);
  const auto contigs = extract_unitigs(graph, tiling.lengths);
  std::vector<int> seen(tiling.reads.size(), 0);
  for (const auto& contig : contigs)
    for (const NodeId node : contig.path) ++seen[node_read(node)];
  for (seq::ReadId read = 0; read < tiling.reads.size(); ++read)
    EXPECT_EQ(seen[read], graph.is_contained(read) ? 0 : 1) << "read " << read;
}

// ---------- edge cases ----------

TEST(Assembler, ZeroReadsYieldNoContigsAndHeaderOnlyGfa) {
  const seq::ReadStore no_reads;
  const std::vector<align::AlignmentRecord> no_records;
  const AssemblyResult result = assemble_serial(no_records, no_reads);
  EXPECT_EQ(result.contigs.size(), 0u);
  EXPECT_EQ(result.edges.size(), 0u);
  EXPECT_EQ(result.stats.contigs, 0u);
  EXPECT_EQ(result.stats.n50, 0u);
  EXPECT_EQ(result.gfa, "H\tVN:Z:1.0\n");
}

TEST(Assembler, AllReadsContainedYieldNothing) {
  const std::vector<std::size_t> lengths{400, 500, 600};
  OverlapGraph graph(3, std::vector<bool>(3, true), std::span<const OverlapEdge>{});
  EXPECT_EQ(graph.stats().contained, 3u);
  const auto contigs = extract_unitigs(graph, lengths);
  EXPECT_EQ(contigs.size(), 0u);
  seq::ReadStore reads;
  reads.add("a", seq::Sequence::from_codes(std::vector<std::uint8_t>(400, 0)));
  reads.add("b", seq::Sequence::from_codes(std::vector<std::uint8_t>(500, 1)));
  reads.add("c", seq::Sequence::from_codes(std::vector<std::uint8_t>(600, 2)));
  std::ostringstream out;
  write_gfa(out, graph, reads);
  EXPECT_EQ(out.str(), "H\tVN:Z:1.0\n");  // no S lines, no L lines
}

TEST(Assembler, SingleReadBecomesSingletonContig) {
  const std::vector<std::size_t> lengths{1'234};
  OverlapGraph graph(1, {}, std::span<const OverlapEdge>{});
  const auto contigs = extract_unitigs(graph, lengths);
  ASSERT_EQ(contigs.size(), 1u);
  EXPECT_EQ(contigs[0].path, std::vector<NodeId>{make_node(0, false)});
  EXPECT_EQ(contigs[0].length, 1'234u);
  EXPECT_TRUE(contigs[0].advances.empty());
}

TEST(Assembler, CircularUnitigBreaksAtLowestForwardRead) {
  // Forward cycle r0 -> r1 -> r2 -> r0 with mirrors: every node has
  // out-degree 1 and in-degree 1, so pass 1 finds no start and pass 2 must
  // break the cycle at read 0, forward orientation.
  const NodeId f0 = make_node(0, false), f1 = make_node(1, false), f2 = make_node(2, false);
  const std::vector<OverlapEdge> edges{
      {f0, f1, 100, 100},
      {node_complement(f1), node_complement(f0), 100, 100},
      {f1, f2, 100, 100},
      {node_complement(f2), node_complement(f1), 100, 100},
      {f2, f0, 100, 100},
      {node_complement(f0), node_complement(f2), 100, 100},
  };
  OverlapGraph graph(3, {}, edges);
  const std::vector<std::size_t> lengths{300, 300, 300};
  const auto contigs = extract_unitigs(graph, lengths);
  ASSERT_EQ(contigs.size(), 1u);
  EXPECT_EQ(contigs[0].path, (std::vector<NodeId>{f0, f1, f2}));
  // 300 + 2 * (300 - 100): the closing wrap edge adds no bases.
  EXPECT_EQ(contigs[0].length, 700u);
}

TEST(Assembler, N50OfSingleContigIsItsLength) {
  std::vector<Contig> one(1);
  one[0].length = 4'242;
  const auto stats = assembly_stats(one);
  EXPECT_EQ(stats.contigs, 1u);
  EXPECT_EQ(stats.n50, 4'242u);
  EXPECT_EQ(stats.longest, 4'242u);
  EXPECT_EQ(stats.total_length, 4'242u);
}

TEST(OverlapGraph, OutEdgesBreakOverlapTiesByTargetId) {
  const NodeId u = make_node(0, false);
  const std::vector<OverlapEdge> edges{
      {u, make_node(2, false), 150, 10},
      {node_complement(make_node(2, false)), node_complement(u), 150, 10},
      {u, make_node(1, false), 150, 10},
      {node_complement(make_node(1, false)), node_complement(u), 150, 10},
      {u, make_node(3, false), 200, 10},
      {node_complement(make_node(3, false)), node_complement(u), 200, 10},
  };
  OverlapGraph graph(4, {}, edges);
  const auto sorted = graph.out_edges(u);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].to, make_node(3, false));  // strongest overlap first
  EXPECT_EQ(sorted[1].to, make_node(1, false));  // tie: lower target id
  EXPECT_EQ(sorted[2].to, make_node(2, false));
}

TEST(Gfa, FlatWriterMatchesGraphWriter) {
  const Tiling tiling = make_tiling();
  OverlapGraph graph(tiling.records, tiling.lengths, 100, 100, 30);
  graph.reduce_transitive(60);
  std::ostringstream via_graph;
  write_gfa(via_graph, graph, tiling.reads);
  std::vector<bool> contained(tiling.reads.size());
  for (seq::ReadId id = 0; id < tiling.reads.size(); ++id)
    contained[id] = graph.is_contained(id);
  const std::vector<OverlapEdge> live = graph.live_edges();
  std::ostringstream via_flat;
  write_gfa(via_flat, tiling.reads.size(), contained, live, tiling.reads);
  EXPECT_EQ(via_graph.str(), via_flat.str());
}

// ---------- GFA ----------

TEST(Gfa, EmitsSegmentsAndLinks) {
  const Tiling tiling = make_tiling();
  OverlapGraph graph(tiling.records, tiling.lengths, 100, 100, 30);
  graph.reduce_transitive(60);
  std::ostringstream out;
  write_gfa(out, graph, tiling.reads);

  std::size_t segments = 0, links = 0;
  std::istringstream in(out.str());
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.rfind("H\t", 0) == 0) saw_header = true;
    if (line.rfind("S\t", 0) == 0) ++segments;
    if (line.rfind("L\t", 0) == 0) ++links;
  }
  EXPECT_TRUE(saw_header);
  EXPECT_EQ(segments, tiling.reads.size());  // nothing contained
  // Each undirected link appears once: half the surviving directed edges.
  EXPECT_EQ(links, graph.stats().final_edges() / 2);
}

TEST(Gfa, WithSequencesEmitsBases) {
  const Tiling tiling = make_tiling(4'000, 600, 300, 3);
  OverlapGraph graph(tiling.records, tiling.lengths, 100, 100, 30);
  std::ostringstream out;
  GfaOptions options;
  options.with_sequences = true;
  write_gfa(out, graph, tiling.reads, options);
  // The first read's bases appear verbatim.
  EXPECT_NE(out.str().find(tiling.reads.get(0).sequence.to_string()), std::string::npos);
}

TEST(Gfa, ContainedReadsOmitted) {
  Xoshiro256 rng(6);
  wl::GenomeParams gp;
  gp.length = 3'000;
  gp.repeat_fraction = 0;
  const seq::Sequence genome = wl::generate_genome(gp, rng);
  seq::ReadStore reads;
  reads.add("big", genome.subseq(0, 2'000));
  reads.add("small", genome.subseq(500, 800));
  const align::Seed anchor{500, 0, 17, false};
  const align::Alignment alignment =
      align::xdrop_align(reads.get(0).sequence, reads.get(1).sequence, anchor, {});
  const std::vector<align::AlignmentRecord> records{{0, 1, alignment}};
  const std::vector<std::size_t> lengths{2'000, 800};
  OverlapGraph graph(records, lengths, 100, 100, 30);
  std::ostringstream out;
  write_gfa(out, graph, reads);
  EXPECT_NE(out.str().find("S\tbig"), std::string::npos);
  EXPECT_EQ(out.str().find("S\tsmall"), std::string::npos);
}

// ---------- PAF ----------

TEST(Paf, FormatAndParseRoundTrip) {
  align::PafRecord record;
  record.query_name = "readA";
  record.query_length = 1'000;
  record.query_begin = 10;
  record.query_end = 900;
  record.reverse_strand = true;
  record.target_name = "readB";
  record.target_length = 1'200;
  record.target_begin = 5;
  record.target_end = 880;
  record.matches = 800;
  record.block_length = 890;
  record.mapq = 255;
  record.score = 777;
  const align::PafRecord back = align::parse_paf(align::format_paf(record));
  EXPECT_EQ(back.query_name, record.query_name);
  EXPECT_EQ(back.query_end, record.query_end);
  EXPECT_EQ(back.reverse_strand, record.reverse_strand);
  EXPECT_EQ(back.target_begin, record.target_begin);
  EXPECT_EQ(back.matches, record.matches);
  EXPECT_EQ(back.score, record.score);
}

TEST(Paf, MalformedLinesThrow) {
  EXPECT_THROW(align::parse_paf("too\tfew\tfields"), Error);
  EXPECT_THROW(align::parse_paf("q\tx\t0\t1\t+\tt\t10\t0\t1\t1\t1\t255"), Error);  // bad num
  EXPECT_THROW(align::parse_paf("q\t10\t0\t1\t?\tt\t10\t0\t1\t1\t1\t255"), Error); // bad strand
}

TEST(Paf, ReverseStrandCoordinatesFlipped) {
  seq::ReadStore reads;
  Xoshiro256 rng(3);
  std::vector<std::uint8_t> codes(200);
  for (auto& code : codes) code = static_cast<std::uint8_t>(rng.below(4));
  reads.add("q", seq::Sequence::from_codes(codes));
  reads.add("t", seq::Sequence::from_codes(codes));

  align::AlignmentRecord record;
  record.read_a = 0;
  record.read_b = 1;
  record.alignment.a_begin = 0;
  record.alignment.a_end = 150;
  record.alignment.b_begin = 20;  // on the reverse complement of t
  record.alignment.b_end = 170;
  record.alignment.b_reversed = true;
  record.alignment.score = 100;
  const align::PafRecord paf = align::to_paf(record, reads);
  EXPECT_TRUE(paf.reverse_strand);
  EXPECT_EQ(paf.target_begin, 200u - 170u);  // flipped to forward coords
  EXPECT_EQ(paf.target_end, 200u - 20u);
  EXPECT_LE(paf.matches, paf.block_length);
}

TEST(Paf, WriteProducesOneLinePerRecord) {
  const Tiling tiling = make_tiling(5'000, 800, 400, 9);
  std::ostringstream out;
  align::write_paf(out, tiling.records, tiling.reads);
  std::size_t lines = 0;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) {
    ++lines;
    const align::PafRecord record = align::parse_paf(line);  // every line parses
    EXPECT_LE(record.query_begin, record.query_end);
    EXPECT_LE(record.target_begin, record.target_end);
  }
  EXPECT_EQ(lines, tiling.records.size());
}
