// Wire-codec and byte-accounting tests (DESIGN.md §15).
//
// Three layers of guarantees:
//   * codec: exact round trip and exact sizing for every mode, on a fuzz
//     corpus that includes empty, all-N, all-homopolymer and ambiguous
//     reads; `auto` never exceeds the smaller concrete codec. The task and
//     record encodings every durable record and exchange frame shares are
//     pinned byte for byte.
//   * engines: byte conservation (sum of per-rank sent == sum received),
//     wire.raw_bytes invariance across modes, byte-identical engine
//     *output* across every codec and rank count — compression changes
//     wire bytes and nothing else — and a memory meter that returns to its
//     entry value, crash recovery included.
//   * hierarchy: the two-level BSP exchange preserves output and byte
//     conservation, and executes exactly the rounds/messages/bytes that
//     proto::plan_node_exchange costs; the simulator's sent-byte
//     prediction stays within the acceptance band of the measured run;
//     async or fault-injected two-level runs are refused.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "align/result.hpp"
#include "core/async.hpp"
#include "core/bsp.hpp"
#include "kmer/candidates.hpp"
#include "pipeline/pipeline.hpp"
#include "proto/config.hpp"
#include "proto/exchange_plan.hpp"
#include "rt/fault.hpp"
#include "rt/world.hpp"
#include "seq/read_store.hpp"
#include "seq/sequence.hpp"
#include "seq/wire_codec.hpp"
#include "sim/assignment.hpp"
#include "sim/machine.hpp"
#include "sim/perf_model.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wl/presets.hpp"

using namespace gnb;

namespace {

constexpr proto::WireCompression kModes[] = {
    proto::WireCompression::kOff, proto::WireCompression::kPack2,
    proto::WireCompression::kPack2Rle, proto::WireCompression::kAuto};

seq::Read make_read(seq::ReadId id, std::string_view bases) {
  seq::Read read;
  read.id = id;
  read.sequence = seq::Sequence::from_string(bases);
  return read;
}

/// The adversarial corpus from the issue: empty, single-base, all-N,
/// all-homopolymer, runs straddling the RLE minimum, and N-interrupted
/// homopolymers (an N splits a run because it packs as A out-of-band).
std::vector<std::string> corpus() {
  std::vector<std::string> reads = {
      "",
      "A",
      "N",
      "ACGT",
      "ACGTACGTACGTACGTACGTACGTACGTACGT",
      std::string(40, 'N'),
      std::string(100, 'A'),
      std::string(1000, 'G'),
      "AAAT",   // run of exactly 3: below the RLE minimum
      "AAAAT",  // run of exactly 4: RLE escape with zero extra
      "AAAAAT", // run of 5: one extra symbol in the escape table
      "AANAA",  // N interrupts what would otherwise be a run
      "CCCCCCCCNGGGGGGGG",
      "ACGTNNNNACGTNNNN",
  };
  return reads;
}

std::vector<std::string> fuzz_corpus(std::size_t count, std::uint64_t seed) {
  static constexpr char kAlphabet[] = "ACGTN";
  Xoshiro256 rng(seed);
  std::vector<std::string> reads;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t length = rng.below(300);
    std::string bases;
    while (bases.size() < length) {
      if (rng.uniform() < 0.2) {
        // Homopolymer stretch, sometimes long enough to trigger the RLE
        // escape (>= 4) and sometimes not.
        const char base = kAlphabet[rng.below(4)];
        bases.append(std::min<std::size_t>(length - bases.size(), 1 + rng.below(12)), base);
      } else {
        bases.push_back(kAlphabet[rng.below(rng.uniform() < 0.05 ? 5 : 4)]);
      }
    }
    reads.push_back(std::move(bases));
  }
  return reads;
}

std::vector<std::string> full_corpus() {
  std::vector<std::string> reads = corpus();
  const std::vector<std::string> fuzz = fuzz_corpus(200, 0x5eed);
  reads.insert(reads.end(), fuzz.begin(), fuzz.end());
  return reads;
}

}  // namespace

TEST(WireCodec, RoundTripAndExactSizing) {
  std::uint32_t id = 0;
  for (const std::string& bases : full_corpus()) {
    const seq::Read read = make_read(id++, bases);
    for (const proto::WireCompression mode : kModes) {
      std::vector<std::uint8_t> buffer = {0xAB};  // nonzero prefix: offsets must be honest
      seq::encode_read(read, mode, buffer);
      EXPECT_EQ(buffer.size() - 1, seq::encoded_read_bytes(read, mode))
          << "mode " << proto::to_string(mode) << " bases '" << bases.substr(0, 32) << "'";
      std::size_t offset = 1;
      const seq::Read decoded = seq::decode_read(buffer, offset);
      EXPECT_EQ(offset, buffer.size());
      EXPECT_EQ(decoded.id, read.id);
      EXPECT_EQ(decoded.sequence, read.sequence)
          << "mode " << proto::to_string(mode) << " bases '" << bases.substr(0, 32) << "'";
    }
  }
}

TEST(WireCodec, MixedModeStreamDecodesWithoutContext) {
  // The codec byte is per frame: a stream holding every mode decodes in
  // order with no out-of-band knowledge (the recovery re-fetch path relies
  // on this).
  const std::vector<std::string> reads = corpus();
  std::vector<std::uint8_t> buffer;
  for (std::size_t i = 0; i < reads.size(); ++i)
    seq::encode_read(make_read(static_cast<std::uint32_t>(i), reads[i]),
                     kModes[i % std::size(kModes)], buffer);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const seq::Read decoded = seq::decode_read(buffer, offset);
    EXPECT_EQ(decoded.id, i);
    EXPECT_EQ(decoded.sequence.to_string(), reads[i]);
  }
  EXPECT_EQ(offset, buffer.size());
}

TEST(WireCodec, AutoNeverExceedsEitherConcreteCodec) {
  std::uint32_t id = 0;
  for (const std::string& bases : full_corpus()) {
    const seq::Read read = make_read(id++, bases);
    const std::uint64_t pack2 = seq::encoded_read_bytes(read, proto::WireCompression::kPack2);
    const std::uint64_t rle = seq::encoded_read_bytes(read, proto::WireCompression::kPack2Rle);
    EXPECT_EQ(seq::encoded_read_bytes(read, proto::WireCompression::kAuto),
              std::min(pack2, rle));
  }
}

TEST(WireCodec, RawBytesIsTheOffFrame) {
  std::uint32_t id = 0;
  for (const std::string& bases : full_corpus()) {
    const seq::Read read = make_read(id++, bases);
    EXPECT_EQ(seq::raw_read_bytes(read),
              seq::encoded_read_bytes(read, proto::WireCompression::kOff));
  }
}

TEST(WireCodec, HomopolymersCollapseUnderRle) {
  const seq::Read read = make_read(7, std::string(4096, 'T'));
  const std::uint64_t off = seq::encoded_read_bytes(read, proto::WireCompression::kOff);
  const std::uint64_t pack2 = seq::encoded_read_bytes(read, proto::WireCompression::kPack2);
  const std::uint64_t rle = seq::encoded_read_bytes(read, proto::WireCompression::kPack2Rle);
  EXPECT_LT(pack2, off / 3);   // 2-bit packing alone is ~4x
  EXPECT_LT(rle, 32u);         // a single run collapses to O(1) bytes
}

TEST(WireCodec, ModeledSizesMatchEncoderOnRunFreeReads) {
  // The simulator sizes pulls analytically from lengths alone, assuming
  // N-free reads with no compressible runs (the model's documented
  // contract — random DNA compresses negligibly under RLE). On such reads
  // the model must agree with the encoder exactly, for every mode.
  Xoshiro256 rng(0xfeed);
  static constexpr char kBases[] = "ACGT";
  for (std::size_t length : {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
                             std::size_t{63}, std::size_t{200}, std::size_t{4096}}) {
    std::string bases;
    while (bases.size() < length) {
      const char base = kBases[rng.below(4)];
      if (!bases.empty() && bases.back() == base) continue;  // never repeat: no runs
      bases.push_back(base);
    }
    const seq::Read read = make_read(static_cast<std::uint32_t>(length), bases);
    for (const proto::WireCompression mode : kModes) {
      EXPECT_EQ(seq::modeled_wire_read_bytes(length, mode),
                seq::encoded_read_bytes(read, mode))
          << "length " << length << " mode " << proto::to_string(mode);
    }
  }
}

namespace {

/// `length` bases of a 12-base cycle in which no base repeats its
/// neighbour, so the reads below carry exactly the runs they spell out.
std::string no_runs(std::size_t length) {
  static constexpr char kCycle[] = "ACGTCAGTGCTA";
  std::string bases;
  for (std::size_t i = 0; i < length; ++i) bases.push_back(kCycle[i % 12]);
  return bases;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  return bytes;
}

/// One read's frames under off, pack2, pack2-rle and auto, in hex.
struct GoldenFrames {
  const char* name;
  std::string bases;
  const char* frames[4];
};

/// Read i is framed with id 0x01020300 + i. A 32-base word holds bases
/// [32w, 32w + 32), so "straddling a word" means across bases 31 and 32.
std::vector<GoldenFrames> golden_frames() {
  return {
      {"length 0", "",
       {"000302010000",
        "00030201010000",
        "0003020102000000",
        "00030201010000"}},
      {"length 1", "G",
       {"01030201000102",
        "0103020101010002",
        "010302010201000002",
        "0103020101010002"}},
      {"length 31", no_runs(31),
       {"02030201001f00010203010002030201030000010203010002030201030000010203010002",
        "02030201011f00e4e136e4e136e421",
        "02030201021f0000e4e136e4e136e421",
        "02030201011f00e4e136e4e136e421"}},
      {"length 32", no_runs(32),
       {"0303020100200001020301000203020103000001020301000203020103000001020301000203",
        "03030201012000e4e136e4e136e4e1",
        "0303020102200000e4e136e4e136e4e1",
        "03030201012000e4e136e4e136e4e1"}},
      {"length 33", no_runs(33),
       {"040302010021000102030100020302010300000102030100020302010300000102030100020302",
        "04030201012100e4e136e4e136e4e102",
        "0403020102210000e4e136e4e136e4e102",
        "04030201012100e4e136e4e136e4e102"}},
      {"length 64", no_runs(64),
       {"050302010040000102030100020302010300000102030100020302010300000102030100020302010300"
        "00010203010002030201030000010203010002030201030000010203",
        "05030201014000e4e136e4e136e4e136e4e136e4e136e4",
        "0503020102400000e4e136e4e136e4e136e4e136e4e136e4",
        "05030201014000e4e136e4e136e4e136e4e136e4e136e4"}},
      {"length 65", no_runs(65),
       {"060302010041000102030100020302010300000102030100020302010300000102030100020302010300"
        "0001020301000203020103000001020301000203020103000001020301",
        "06030201014100e4e136e4e136e4e136e4e136e4e136e401",
        "0603020102410000e4e136e4e136e4e136e4e136e4e136e401",
        "06030201014100e4e136e4e136e4e136e4e136e4e136e401"}},
      {"runs of 3, 4 and 5", "CAAAGTTTTCGGGGGA",
       {"07030201001001000000020303030301020202020200",
        "0703020101100001fea72a",
        "0703020102100002000101fea70a",
        "0703020101100001fea72a"}},
      {"run of 136 (a two-byte varint)", "AC" + std::string(136, 'T') + "GA",
       {"08030201008c010001030303030303030303030303030303030303030303030303030303030303030303"
        "030303030303030303030303030303030303030303030303030303030303030303030303030303030303"
        "030303030303030303030303030303030303030303030303030303030303030303030303030303030303"
        "030303030303030303030303030303030303030200",
        "08030201018c0100f4ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
        "2f",
        "08030201028c0100018401f42f",
        "08030201028c0100018401f42f"}},
      {"run straddling a word", no_runs(28) + std::string(9, 'C') + no_runs(5),
       {"09030201002a000102030100020302010300000102030100020302010300000102030101010101010101"
        "010001020301",
        "09030201012a00e4e136e4e136e455559107",
        "09030201022a000105e4e136e4e136e455e401",
        "09030201012a00e4e136e4e136e455559107"}},
      {"Ns straddling a word", no_runs(30) + "NNNN" + no_runs(4),
       {"0a0302010026000102030100020302010300000102030100020302010300000102030100040404040001"
        "0203",
        "0a0302010126041e010101e4e136e4e136e401400e",
        "0a0302010226041e0101010102e4e136e4e136e401e4",
        "0a0302010126041e010101e4e136e4e136e401400e"}},
      {"N inside a run of A", "GAANAAC",
       {"0b030201000702000004000001",
        "0b030201010701030210",
        "0b0302010207010301010204",
        "0b030201010701030210"}},
      {"all-N", "NNNNN",
       {"0c03020100050404040404",
        "0c03020101050500010101010000",
        "0c0302010205050001010101010100",
        "0c03020101050500010101010000"}},
      {"all-N straddling a word", std::string(40, 'N'),
       {"0d0302010028040404040404040404040404040404040404040404040404040404040404040404040404"
        "04040404",
        "0d0302010128280001010101010101010101010101010101010101010101010101010101010101010101"
        "010101010100000000000000000000",
        "0d0302010228280001010101010101010101010101010101010101010101010101010101010101010101"
        "0101010101012400",
        "0d0302010228280001010101010101010101010101010101010101010101010101010101010101010101"
        "0101010101012400"}},
  };
}

/// Golden read `index`, with the id its frames carry.
seq::Read golden_read(std::size_t index) {
  return make_read(0x01020300u + static_cast<std::uint32_t>(index),
                   golden_frames()[index].bases);
}

}  // namespace

TEST(WireCodec, ReadFrameGoldenBytes) {
  // Every frame is pinned byte for byte: the codec may change how it
  // computes a frame, never what it ships. A read whose packed words hold
  // a code under an N (reverse_complement leaves one there) frames like
  // the same read parsed from text.
  const std::vector<GoldenFrames> cases = golden_frames();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const seq::Read read = golden_read(i);
    seq::Read flipped = read;
    flipped.sequence = seq::Sequence::from_string(read.sequence.reverse_complement().to_string())
                           .reverse_complement();
    ASSERT_EQ(flipped.sequence.to_string(), cases[i].bases);
    for (std::size_t m = 0; m < std::size(kModes); ++m) {
      SCOPED_TRACE(std::string(cases[i].name) + ", " + proto::to_string(kModes[m]));
      const std::vector<std::uint8_t> golden = from_hex(cases[i].frames[m]);
      std::vector<std::uint8_t> frame;
      seq::encode_read(read, kModes[m], frame);
      EXPECT_EQ(frame, golden);
      EXPECT_EQ(seq::encoded_read_bytes(read, kModes[m]), golden.size());
      std::vector<std::uint8_t> flipped_frame;
      seq::encode_read(flipped, kModes[m], flipped_frame);
      EXPECT_EQ(flipped_frame, golden);
      EXPECT_EQ(seq::encoded_read_bytes(flipped, kModes[m]), golden.size());
      std::size_t offset = 0;
      const seq::Read decoded = seq::decode_read(golden, offset);
      EXPECT_EQ(offset, golden.size());
      EXPECT_EQ(decoded.id, read.id);
      EXPECT_EQ(decoded.sequence, read.sequence);
    }
  }
}

TEST(WireCodec, Pack2DecodeIgnoresUnusedTailBits) {
  // 33 bases fill 9 packed bytes; the last byte's top six bits are unused.
  const seq::Read clean = golden_read(4);
  ASSERT_EQ(clean.sequence.size(), 33u);
  std::vector<std::uint8_t> frame;
  seq::encode_read(clean, proto::WireCompression::kPack2, frame);
  frame.back() |= 0xFC;
  std::size_t offset = 0;
  const seq::Read decoded = seq::decode_read(frame, offset);
  EXPECT_EQ(offset, frame.size());
  EXPECT_EQ(decoded.sequence, clean.sequence);
}

TEST(WireCodec, Pack2DecodeIgnoresCodesUnderNs) {
  // Bases 30-33 are N; their packed codes (bits 4-7 of packed byte 7, bits
  // 0-3 of byte 8) are set to T instead of the A the encoder writes.
  const seq::Read clean = golden_read(10);
  ASSERT_EQ(clean.sequence.n_count(), 4u);
  std::vector<std::uint8_t> frame;
  seq::encode_read(clean, proto::WireCompression::kPack2, frame);
  const std::size_t body = frame.size() - (clean.sequence.size() + 3) / 4;
  frame[body + 7] |= 0xF0;
  frame[body + 8] |= 0x0F;
  std::size_t offset = 0;
  const seq::Read decoded = seq::decode_read(frame, offset);
  EXPECT_EQ(offset, frame.size());
  EXPECT_EQ(decoded.sequence, clean.sequence);
  EXPECT_EQ(decoded.sequence.to_string(), golden_frames()[10].bases);
}

TEST(SharedCodec, TaskAndRecordGoldenBytes) {
  // The task and record layouts carried by rt::DurableStore manifests and
  // recovery log entries, assembly record manifests and the stage-2/3
  // exchange frames.
  kmer::AlignTask task;
  task.a = 0x01020304;
  task.b = 0x0A0B0C0D;
  task.seed = align::Seed{0x11, 0x2233, 0x4455, true};
  align::AlignmentRecord record;
  record.read_a = 7;
  record.read_b = 9;
  record.alignment.score = -2;
  record.alignment.a_begin = 1;
  record.alignment.a_end = 300;
  record.alignment.b_begin = 2;
  record.alignment.b_end = 0x10000;
  record.alignment.b_reversed = true;
  record.alignment.cells = 0x0102030405060708;
  std::vector<std::uint8_t> encoded;
  kmer::put_task(encoded, task);
  align::put_record(encoded, record);
  const std::vector<std::uint8_t> golden = {
      0x04, 0x03, 0x02, 0x01, 0x0D, 0x0C, 0x0B, 0x0A,  // task a, b
      0x11, 0x00, 0x00, 0x00, 0x33, 0x22, 0x00, 0x00,  // seed a_pos, b_pos
      0x55, 0x44, 0x01,                                // seed length, b_reversed
      0x07, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00,  // record read_a, read_b
      0xFE, 0xFF, 0xFF, 0xFF, 0x01, 0x00, 0x00, 0x00,  // score, a_begin
      0x2C, 0x01, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,  // a_end, b_begin
      0x00, 0x00, 0x01, 0x00, 0x01,                    // b_end, b_reversed
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // cells
  };
  EXPECT_EQ(encoded, golden);
  // The bytes decode back to the same fields (re-encoding is exact, so
  // equal bytes mean equal fields).
  std::size_t offset = 0;
  std::vector<std::uint8_t> reencoded;
  kmer::put_task(reencoded, kmer::get_task(golden, offset));
  align::put_record(reencoded, align::get_record(golden, offset));
  EXPECT_EQ(offset, golden.size());
  EXPECT_EQ(reencoded, golden);
}

// ---------------------------------------------------------------------------
// Engine matrix: byte conservation, raw-byte invariance, output identity.
// ---------------------------------------------------------------------------

namespace {

struct Fixture {
  wl::SampledDataset dataset;
  pipeline::PipelineConfig pipeline_config;
};

const Fixture& fixture() {
  static const Fixture f = [] {
    Fixture fx;
    wl::DatasetSpec spec = wl::tiny_spec();
    spec.genome.length = 12'000;
    spec.reads.coverage = 8;
    fx.dataset = wl::synthesize(spec, 29);
    fx.pipeline_config.k = spec.k;
    fx.pipeline_config.lo = 2;
    fx.pipeline_config.hi = 8;
    return fx;
  }();
  return f;
}

std::vector<align::AlignmentRecord> sorted(std::vector<align::AlignmentRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
              return std::tie(x.read_a, x.read_b, x.alignment.score, x.alignment.a_begin) <
                     std::tie(y.read_a, y.read_b, y.alignment.score, y.alignment.a_begin);
            });
  return records;
}

struct RunTotals {
  std::vector<align::AlignmentRecord> accepted;  // globally sorted
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t raw = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
};

RunTotals run_engine(bool async_mode, std::size_t nranks, const core::EngineConfig& config,
                     const Fixture& f) {
  const pipeline::TaskSet tasks =
      pipeline::run_serial(f.dataset.reads, f.pipeline_config, nranks);
  rt::World world(nranks);
  std::vector<core::EngineResult> results(nranks);
  world.run([&](rt::Rank& rank) {
    results[rank.id()] =
        async_mode ? core::async_align(rank, f.dataset.reads, tasks.bounds,
                                       tasks.per_rank[rank.id()], config)
                   : core::bsp_align(rank, f.dataset.reads, tasks.bounds,
                                     tasks.per_rank[rank.id()], config);
  });
  RunTotals totals;
  for (const core::EngineResult& result : results) {
    totals.accepted.insert(totals.accepted.end(), result.accepted.begin(),
                           result.accepted.end());
    totals.sent += result.exchange_bytes_sent;
    totals.received += result.exchange_bytes_received;
    totals.raw += result.wire_raw_bytes;
    totals.messages += result.messages;
    totals.rounds = std::max(totals.rounds, result.rounds);
  }
  totals.accepted = sorted(std::move(totals.accepted));
  return totals;
}

void expect_same_output(const RunTotals& x, const RunTotals& y) {
  ASSERT_EQ(x.accepted.size(), y.accepted.size());
  for (std::size_t i = 0; i < x.accepted.size(); ++i) {
    const align::AlignmentRecord& a = x.accepted[i];
    const align::AlignmentRecord& b = y.accepted[i];
    EXPECT_EQ(a.read_a, b.read_a) << "record " << i;
    EXPECT_EQ(a.read_b, b.read_b) << "record " << i;
    EXPECT_EQ(a.alignment.score, b.alignment.score) << "record " << i;
    EXPECT_EQ(a.alignment.a_begin, b.alignment.a_begin) << "record " << i;
    EXPECT_EQ(a.alignment.a_end, b.alignment.a_end) << "record " << i;
    EXPECT_EQ(a.alignment.b_begin, b.alignment.b_begin) << "record " << i;
    EXPECT_EQ(a.alignment.b_end, b.alignment.b_end) << "record " << i;
    EXPECT_EQ(a.alignment.b_reversed, b.alignment.b_reversed) << "record " << i;
  }
}

}  // namespace

TEST(WireBytes, ConservationAndOutputIdentityAcrossModes) {
  const Fixture& f = fixture();
  for (const bool async_mode : {false, true}) {
    for (const std::size_t nranks : {1u, 2u, 4u, 8u}) {
      std::vector<RunTotals> per_mode;
      for (const proto::WireCompression mode : kModes) {
        core::EngineConfig config;
        config.proto.wire_compression = mode;
        per_mode.push_back(run_engine(async_mode, nranks, config, f));
        const RunTotals& run = per_mode.back();
        // Byte conservation: what the world sent is what the world received.
        EXPECT_EQ(run.sent, run.received)
            << (async_mode ? "async" : "bsp") << " ranks " << nranks << " mode "
            << proto::to_string(mode);
        if (nranks > 1) {
          EXPECT_GT(run.received, 0u);
        }
      }
      const RunTotals& off = per_mode.front();
      for (std::size_t m = 1; m < per_mode.size(); ++m) {
        // The raw-byte counter reports the off-equivalent payload whatever
        // the codec: invariant across modes.
        EXPECT_EQ(per_mode[m].raw, off.raw)
            << (async_mode ? "async" : "bsp") << " ranks " << nranks << " mode "
            << proto::to_string(kModes[m]);
        // Compression changes wire bytes and nothing else.
        expect_same_output(per_mode[m], off);
      }
      // With the off codec the wire carries exactly the raw payload.
      EXPECT_EQ(off.received, off.raw);
      if (nranks > 1) {
        // The packed codecs genuinely shrink the exchange (~4x on random
        // DNA; >= 3x is the acceptance line).
        EXPECT_LT(3 * per_mode[2].received, off.received)
            << (async_mode ? "async" : "bsp") << " ranks " << nranks;
      }
    }
  }
}

TEST(WireBytes, MemoryMeterReturnsToEntryValue) {
  // Every byte the read-shipping layer charges — send and receive frames,
  // decoded reads, recovery re-fetches — is released by the same code, so
  // a rank's live meter is back at its entry value when the phase ends.
  const Fixture& f = fixture();
  constexpr std::size_t kRanks = 4;
  const pipeline::TaskSet tasks =
      pipeline::run_serial(f.dataset.reads, f.pipeline_config, kRanks);
  const core::EngineConfig config;
  const auto drift = [&](bool async_mode, const std::string& faults) {
    rt::World world(kRanks);
    if (!faults.empty()) world.set_faults(rt::FaultPlan::parse(faults));
    std::vector<std::optional<std::int64_t>> out(kRanks);
    world.run([&](rt::Rank& rank) {
      const std::uint64_t entry = rank.memory().live();
      const std::vector<kmer::AlignTask>& mine = tasks.per_rank[rank.id()];
      (void)(async_mode ? core::async_align(rank, f.dataset.reads, tasks.bounds, mine, config)
                        : core::bsp_align(rank, f.dataset.reads, tasks.bounds, mine, config));
      out[rank.id()] = static_cast<std::int64_t>(rank.memory().live() - entry);
    });
    return out;
  };
  for (const bool async_mode : {false, true}) {
    for (const std::optional<std::int64_t>& d : drift(async_mode, "")) {
      EXPECT_EQ(d, 0) << (async_mode ? "async" : "bsp");
    }
  }
  // Rank 2 dies at its second collective; the survivors re-fetch its reads.
  const auto crashed = drift(false, "seed=5,crash@2:2");
  EXPECT_FALSE(crashed[2].has_value());
  for (const std::size_t r : {0u, 1u, 3u}) {
    EXPECT_EQ(crashed[r], 0) << "survivor " << r;
  }
}

// ---------------------------------------------------------------------------
// Two-level hierarchy: output identity, conservation, plan agreement.
// ---------------------------------------------------------------------------

TEST(WireHierarchy, TwoLevelBspMatchesFlatOutputAndConservesBytes) {
  const Fixture& f = fixture();
  constexpr std::size_t kRanks = 4;
  core::EngineConfig flat_config;
  flat_config.proto.wire_compression = proto::WireCompression::kPack2Rle;
  const RunTotals flat = run_engine(false, kRanks, flat_config, f);

  core::EngineConfig hier_config = flat_config;
  hier_config.proto.ranks_per_node = 2;
  const RunTotals hier = run_engine(false, kRanks, hier_config, f);

  expect_same_output(hier, flat);
  EXPECT_EQ(hier.sent, hier.received);
  // Every requester still receives each needed read exactly once (direct
  // for the proxy, forwarded for its node peers), so the received payload
  // and its raw equivalent match the flat exchange.
  EXPECT_EQ(hier.received, flat.received);
  EXPECT_EQ(hier.raw, flat.raw);

  // The two-level exchange is BSP-only and fault-free only: any other
  // combination is refused loudly rather than silently run flat.
  EXPECT_THROW(proto::check_ranks_per_node(2, /*bsp_engine=*/false, /*faults=*/false),
               gnb::Error);
  EXPECT_THROW(proto::check_ranks_per_node(2, /*bsp_engine=*/true, /*faults=*/true),
               gnb::Error);
  EXPECT_NO_THROW(proto::check_ranks_per_node(2, /*bsp_engine=*/true, /*faults=*/false));
  // A flat exchange goes anywhere (`--ranks-per-node 1 --faults ...`).
  EXPECT_NO_THROW(proto::check_ranks_per_node(1, /*bsp_engine=*/false, /*faults=*/true));
}

TEST(WireHierarchy, EngineExecutesThePlannedTwoLevelExchange) {
  const Fixture& f = fixture();
  constexpr std::size_t kRanks = 4;
  core::EngineConfig config;
  config.skip_compute = true;
  config.proto.wire_compression = proto::WireCompression::kPack2;
  config.proto.ranks_per_node = 2;

  const pipeline::TaskSet tasks =
      pipeline::run_serial(f.dataset.reads, f.pipeline_config, kRanks);
  const sim::SimAssignment assignment = sim::assignment_from_tasks(
      tasks.per_rank, f.dataset.reads, tasks.bounds, config.proto.wire_compression);
  proto::NodePlanInput input;
  input.ranks_per_node = config.proto.ranks_per_node;
  input.pulls.resize(kRanks);
  for (std::size_t r = 0; r < kRanks; ++r)
    for (const sim::Pull& pull : assignment.ranks[r].pulls)
      input.pulls[r].push_back(
          proto::PullRequest{pull.read, pull.owner, pull.bytes, pull.raw_bytes});
  const proto::NodeExchangePlan plan = proto::plan_node_exchange(input, config.proto);

  rt::World world(kRanks);
  std::vector<core::EngineResult> results(kRanks);
  world.run([&](rt::Rank& rank) {
    results[rank.id()] = core::bsp_align(rank, f.dataset.reads, tasks.bounds,
                                         tasks.per_rank[rank.id()], config);
  });
  std::uint64_t messages = 0, sent = 0, received = 0, raw = 0;
  for (const core::EngineResult& result : results) {
    EXPECT_EQ(result.rounds, plan.rounds);
    messages += result.messages;
    sent += result.exchange_bytes_sent;
    received += result.exchange_bytes_received;
    raw += result.wire_raw_bytes;
  }
  EXPECT_EQ(messages, plan.bsp_messages);
  EXPECT_EQ(sent, plan.exchange_bytes);
  EXPECT_EQ(received, plan.exchange_bytes);
  EXPECT_EQ(raw, plan.raw_bytes);
  // Aggregation moves bytes off the inter-node wire without losing any:
  // the split sums back to the conserved total.
  EXPECT_EQ(plan.inter_node_bytes + plan.intra_node_bytes, plan.exchange_bytes);
  EXPECT_LE(plan.inter_node_bytes, plan.flat_inter_node_bytes);
}

TEST(WireHierarchy, SimPredictsMeasuredSentBytes) {
  // Acceptance: the simulator's sent-byte prediction for the threaded host
  // is within 15% of the measured engine run (it is exact by construction
  // — both sides count codec frames from the same assignment).
  const Fixture& f = fixture();
  constexpr std::size_t kRanks = 4;
  core::EngineConfig config;
  config.skip_compute = true;
  config.proto.wire_compression = proto::WireCompression::kPack2Rle;

  const RunTotals measured = run_engine(false, kRanks, config, f);

  const pipeline::TaskSet tasks =
      pipeline::run_serial(f.dataset.reads, f.pipeline_config, kRanks);
  const sim::SimAssignment assignment = sim::assignment_from_tasks(
      tasks.per_rank, f.dataset.reads, tasks.bounds, config.proto.wire_compression);
  sim::SimOptions options;
  options.proto = config.proto;
  const sim::SimResult sim_result =
      sim::simulate_bsp(sim::threaded_host(kRanks), assignment, options);

  ASSERT_GT(measured.sent, 0u);
  const double rel = static_cast<double>(sim_result.exchange_bytes) /
                     static_cast<double>(measured.sent);
  EXPECT_GE(rel, 0.85);
  EXPECT_LE(rel, 1.15);
  EXPECT_EQ(sim_result.wire_raw_bytes, measured.raw);

  // The simulator refuses the same combinations the engines do.
  sim::SimOptions hier = options;
  hier.proto.ranks_per_node = 2;
  EXPECT_THROW(sim::simulate_async(sim::threaded_host(kRanks), assignment, hier), gnb::Error);
  hier.faults = rt::FaultPlan::parse("seed=5,crash@2:2");
  EXPECT_THROW(sim::simulate_bsp(sim::threaded_host(kRanks), assignment, hier), gnb::Error);
}
