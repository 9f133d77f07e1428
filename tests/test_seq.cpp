// Unit and property tests for gnb_seq: alphabets, packed sequences,
// FASTA/FASTQ parsing, read store and size-balanced partitioning.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "seq/alphabet.hpp"
#include "seq/fasta.hpp"
#include "seq/read_store.hpp"
#include "seq/sequence.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace gnb;
using namespace gnb::seq;

namespace {

std::string random_dna(std::size_t length, Xoshiro256& rng, double n_rate = 0.0) {
  std::string s(length, 'A');
  for (auto& ch : s) {
    if (n_rate > 0 && rng.uniform() < n_rate) {
      ch = 'N';
    } else {
      ch = dna_decode(static_cast<std::uint8_t>(rng.below(4)));
    }
  }
  return s;
}

}  // namespace

// ---------- alphabet ----------

TEST(Alphabet, EncodeDecodeRoundTrip) {
  for (char base : {'A', 'C', 'G', 'T', 'N'}) {
    EXPECT_EQ(dna_decode(dna_encode(base)), base);
  }
}

TEST(Alphabet, LowercaseAccepted) {
  EXPECT_EQ(dna_encode('a'), kA);
  EXPECT_EQ(dna_encode('g'), kG);
  EXPECT_EQ(dna_encode('n'), kN);
}

TEST(Alphabet, InvalidCharactersRejected) {
  EXPECT_EQ(dna_encode('X'), kInvalidCode);
  EXPECT_EQ(dna_encode('-'), kInvalidCode);
  EXPECT_EQ(dna_encode(' '), kInvalidCode);
  EXPECT_FALSE(is_dna_char('Z'));
  EXPECT_TRUE(is_dna_char('U'));  // RNA tolerated as T
}

TEST(Alphabet, ComplementPairs) {
  EXPECT_EQ(dna_complement(kA), kT);
  EXPECT_EQ(dna_complement(kT), kA);
  EXPECT_EQ(dna_complement(kC), kG);
  EXPECT_EQ(dna_complement(kG), kC);
  EXPECT_EQ(dna_complement(kN), kN);
}

// ---------- Sequence ----------

class SequenceRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SequenceRoundTrip, StringRoundTrip) {
  Xoshiro256 rng(GetParam() * 1000 + 17);
  const std::string s = random_dna(GetParam(), rng, 0.05);
  const Sequence seq = Sequence::from_string(s);
  EXPECT_EQ(seq.size(), s.size());
  EXPECT_EQ(seq.to_string(), s);
}

TEST_P(SequenceRoundTrip, SerializationRoundTrip) {
  Xoshiro256 rng(GetParam() * 2000 + 3);
  const Sequence seq = Sequence::from_string(random_dna(GetParam(), rng, 0.03));
  std::vector<std::uint8_t> buffer;
  seq.serialize(buffer);
  std::size_t offset = 0;
  const Sequence back = Sequence::deserialize(buffer, offset);
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(back, seq);
}

TEST_P(SequenceRoundTrip, ReverseComplementIsInvolution) {
  Xoshiro256 rng(GetParam() * 3000 + 9);
  const Sequence seq = Sequence::from_string(random_dna(GetParam(), rng, 0.02));
  EXPECT_EQ(seq.reverse_complement().reverse_complement(), seq);
}

TEST_P(SequenceRoundTrip, UnpackMatchesCodeAt) {
  Xoshiro256 rng(GetParam() * 4000 + 11);
  const Sequence seq = Sequence::from_string(random_dna(GetParam(), rng, 0.08));
  const auto codes = seq.unpack();
  ASSERT_EQ(codes.size(), seq.size());
  for (std::size_t i = 0; i < seq.size(); ++i) EXPECT_EQ(codes[i], seq.code_at(i));
}

// Word boundaries (32 bases per word) are where packing bugs live.
INSTANTIATE_TEST_SUITE_P(Lengths, SequenceRoundTrip,
                         ::testing::Values(1, 2, 31, 32, 33, 63, 64, 65, 100, 1000));

TEST(Sequence, KnownReverseComplement) {
  const Sequence seq = Sequence::from_string("ACGTN");
  EXPECT_EQ(seq.reverse_complement().to_string(), "NACGT");
}

TEST(Sequence, NPositionsSurviveRoundTrips) {
  const Sequence seq = Sequence::from_string("ANNGTNA");
  EXPECT_TRUE(seq.is_n(1));
  EXPECT_TRUE(seq.is_n(2));
  EXPECT_TRUE(seq.is_n(5));
  EXPECT_FALSE(seq.is_n(0));
  EXPECT_EQ(seq.n_count(), 3u);
  EXPECT_EQ(seq.reverse_complement().to_string(), "TNACNNT");
}

TEST(Sequence, Subseq) {
  const Sequence seq = Sequence::from_string("ACGTNACGT");
  EXPECT_EQ(seq.subseq(2, 4).to_string(), "GTNA");
  EXPECT_EQ(seq.subseq(0, 9).to_string(), "ACGTNACGT");
  EXPECT_EQ(seq.subseq(8, 1).to_string(), "T");
  EXPECT_EQ(seq.subseq(3, 0).size(), 0u);
}

TEST(Sequence, InvalidCharacterThrows) {
  EXPECT_THROW(Sequence::from_string("ACGX"), Error);
}

TEST(Sequence, FromCodesValidation) {
  const std::vector<std::uint8_t> good{0, 1, 2, 3, 4};
  EXPECT_EQ(Sequence::from_codes(good).to_string(), "ACGTN");
  const std::vector<std::uint8_t> bad{0, 9};
  EXPECT_THROW(Sequence::from_codes(bad), Error);
}

TEST(Sequence, DeserializeTruncatedThrows) {
  const Sequence seq = Sequence::from_string("ACGTACGTACGT");
  std::vector<std::uint8_t> buffer;
  seq.serialize(buffer);
  buffer.resize(buffer.size() - 1);
  std::size_t offset = 0;
  EXPECT_THROW(Sequence::deserialize(buffer, offset), Error);
}

TEST(Sequence, NFraction) {
  EXPECT_DOUBLE_EQ(n_fraction(Sequence::from_string("ANAN")), 0.5);
  EXPECT_DOUBLE_EQ(n_fraction(Sequence()), 0.0);
}

TEST(Sequence, OrientedCodesMatchesBothOrientations) {
  // The one decode helper every consumer (engine, xdrop overload, read
  // cache) shares: forward == unpack(), rc == reverse_complement().unpack().
  Xoshiro256 rng(7);
  for (const std::size_t length : {1u, 32u, 33u, 257u}) {
    const Sequence seq = Sequence::from_string(random_dna(length, rng, /*n_rate=*/0.05));
    EXPECT_EQ(oriented_codes(seq, false), seq.unpack());
    EXPECT_EQ(oriented_codes(seq, true), seq.reverse_complement().unpack());
  }
  EXPECT_TRUE(oriented_codes(Sequence(), false).empty());
  EXPECT_TRUE(oriented_codes(Sequence(), true).empty());
}

// ---------- FASTA / FASTQ ----------

TEST(Fasta, ParsesMultilineRecords) {
  std::istringstream in(">read1 first comment\nACGT\nACGT\n>read2\nTTTT\n");
  FastaReader reader(in);
  auto r1 = reader.next();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->name, "read1");
  EXPECT_EQ(r1->comment, "first comment");
  EXPECT_EQ(r1->sequence.to_string(), "ACGTACGT");
  auto r2 = reader.next();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->name, "read2");
  EXPECT_EQ(r2->sequence.to_string(), "TTTT");
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Fasta, HandlesCrlfAndBlankLines) {
  std::istringstream in(">r\r\nAC\r\n\r\nGT\r\n");
  FastaReader reader(in);
  auto r = reader.next();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->sequence.to_string(), "ACGT");
}

TEST(Fasta, EmptyStreamYieldsNothing) {
  std::istringstream in("");
  FastaReader reader(in);
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Fasta, MissingHeaderThrows) {
  std::istringstream in("ACGT\n");
  FastaReader reader(in);
  EXPECT_THROW(reader.next(), Error);
}

TEST(Fasta, RecordWithoutSequenceThrows) {
  std::istringstream in(">only_header\n>next\nACGT\n");
  FastaReader reader(in);
  EXPECT_THROW(reader.next(), Error);
}

namespace {

/// The message of the gnb::Error `parse` throws, or "" when it throws none.
template <class Parse>
std::string error_of(Parse parse) {
  try {
    parse();
  } catch (const Error& error) {
    return error.what();
  }
  return "";
}

/// Bytes a corrupt file can hold in a base line, and how errors print them.
const std::pair<std::string, std::string> kBadBytes[] = {
    {std::string(1, '\r'), "\\x0D"},
    {std::string(1, '\0'), "\\x00"},
    {std::string(1, '\xff'), "\\xFF"},
};

}  // namespace

TEST(Fasta, InvalidBaseNamesTheRecord) {
  for (const auto& [raw, shown] : kBadBytes) {
    SCOPED_TRACE(shown);
    std::istringstream in(">r1\nACGT\n>r2\nACG" + raw + "TA\n");
    FastaReader reader(in);
    ASSERT_TRUE(reader.next().has_value());
    EXPECT_EQ(error_of([&] { reader.next(); }),
              "FASTA record 2 'r2': invalid DNA character '" + shown + "' at position 3");
  }
}

TEST(Fasta, WriterRoundTrip) {
  std::ostringstream out;
  FastaWriter writer(out, 10);
  FastaRecord record;
  record.name = "r1";
  record.comment = "c";
  record.sequence = Sequence::from_string("ACGTACGTACGTACGTACGTACG");
  writer.write(record);
  std::istringstream in(out.str());
  FastaReader reader(in);
  auto back = reader.next();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, "r1");
  EXPECT_EQ(back->sequence, record.sequence);
}

TEST(Fastq, ParsesFourLineRecords) {
  std::istringstream in("@r1 comment\nACGT\n+\nIIII\n@r2\nGG\n+r2\nII\n");
  FastqReader reader(in);
  auto r1 = reader.next();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->name, "r1");
  EXPECT_EQ(r1->sequence.to_string(), "ACGT");
  auto r2 = reader.next();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->sequence.to_string(), "GG");
  EXPECT_FALSE(reader.next().has_value());
}

TEST(Fastq, QualityLengthMismatchThrows) {
  std::istringstream in("@r1\nACGT\n+\nII\n");
  FastqReader reader(in);
  EXPECT_THROW(reader.next(), Error);
}

TEST(Fastq, InvalidBaseNamesTheLine) {
  for (const auto& [raw, shown] : kBadBytes) {
    SCOPED_TRACE(shown);
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nACG" + raw + "TA\n+\nIIIIII\n");
    EXPECT_EQ(error_of([&] { read_records(in, /*fastq=*/true); }),
              "FASTQ line 6: invalid DNA character '" + shown + "' at position 3");
  }
}

TEST(Fastq, TruncatedRecordThrows) {
  std::istringstream in("@r1\nACGT\n");
  FastqReader reader(in);
  EXPECT_THROW(reader.next(), Error);
}

TEST(ReadRecords, DenseIdsInInputOrder) {
  std::istringstream fasta(">a\nACGT\n>b desc\nAA\n");
  const ReadStore store = read_records(fasta, false);
  ASSERT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get(0).name, "a");
  EXPECT_EQ(store.get(1).name, "b");
  EXPECT_EQ(store.total_bases(), 6u);
  std::istringstream fastq("@a\nACGT\n+\nIIII\n@b\nAA\n+\nII\n");
  EXPECT_EQ(read_records(fastq, true).size(), 2u);
}

TEST(ReadRecords, DuplicateNameNamesBothRecords) {
  const auto error_text = [](const std::string& text, bool fastq) -> std::string {
    std::istringstream in(text);
    try {
      (void)read_records(in, fastq);
    } catch (const Error& e) {
      return e.what();
    }
    ADD_FAILURE() << "duplicate name accepted";
    return {};
  };
  // A different comment does not make the name distinct: PAF carries the
  // name only.
  const std::string fasta = error_text(">read0\nACGT\n>read1\nAC\n>read0 again\nGG\n", false);
  EXPECT_NE(fasta.find("'read0'"), std::string::npos) << fasta;
  EXPECT_NE(fasta.find("records 1 and 3"), std::string::npos) << fasta;
  const std::string fastq = error_text("@r\nACGT\n+\nIIII\n@r\nAA\n+\nII\n", true);
  EXPECT_NE(fastq.find("'r'"), std::string::npos) << fastq;
  EXPECT_NE(fastq.find("records 1 and 2"), std::string::npos) << fastq;
}

// ---------- ReadStore ----------

TEST(ReadStore, DenseIdsAndTotals) {
  ReadStore store;
  const ReadId a = store.add("a", Sequence::from_string("ACGT"));
  const ReadId b = store.add("b", Sequence::from_string("AA"));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.total_bases(), 6u);
  EXPECT_EQ(store.get(1).name, "b");
}

TEST(ReadStore, SerializeReadRoundTrip) {
  const Read read{7, "x", Sequence::from_string("ACGTNACGTACGTNN")};
  std::vector<std::uint8_t> buffer;
  serialize_read(read, buffer);
  EXPECT_EQ(buffer.size(), serialized_read_bytes(read));
  std::size_t offset = 0;
  const Read back = deserialize_read(buffer, offset);
  EXPECT_EQ(back.id, 7u);
  EXPECT_EQ(back.sequence, read.sequence);
  EXPECT_EQ(offset, buffer.size());
}

// ---------- partitioning ----------

class PartitionBySize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PartitionBySize, CoversAllReadsInOrder) {
  Xoshiro256 rng(GetParam());
  std::vector<std::size_t> lengths(257);
  for (auto& len : lengths) len = 100 + rng.below(5000);
  const auto bounds = partition_by_size(lengths, GetParam());
  ASSERT_EQ(bounds.size(), GetParam() + 1);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), lengths.size());
  for (std::size_t r = 0; r + 1 < bounds.size(); ++r) EXPECT_LE(bounds[r], bounds[r + 1]);
}

TEST_P(PartitionBySize, LoadIsRoughlyBalanced) {
  Xoshiro256 rng(GetParam() + 99);
  std::vector<std::size_t> lengths(1000);
  std::uint64_t total = 0;
  for (auto& len : lengths) {
    len = 500 + rng.below(2000);
    total += len;
  }
  const auto bounds = partition_by_size(lengths, GetParam());
  const double ideal = static_cast<double>(total) / static_cast<double>(GetParam());
  for (std::size_t r = 0; r < GetParam(); ++r) {
    std::uint64_t load = 0;
    for (ReadId id = bounds[r]; id < bounds[r + 1]; ++id) load += lengths[id];
    // Within one max read length of ideal.
    EXPECT_NEAR(static_cast<double>(load), ideal, 2600.0);
  }
}

TEST_P(PartitionBySize, OwnerLookupMatchesBounds) {
  Xoshiro256 rng(GetParam() + 7);
  std::vector<std::size_t> lengths(123);
  for (auto& len : lengths) len = 1 + rng.below(100);
  const auto bounds = partition_by_size(lengths, GetParam());
  for (ReadId id = 0; id < lengths.size(); ++id) {
    const std::size_t owner = partition_owner(bounds, id);
    EXPECT_GE(id, bounds[owner]);
    EXPECT_LT(id, bounds[owner + 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, PartitionBySize, ::testing::Values(1, 2, 3, 7, 16, 64));

TEST(PartitionBySize, MoreRanksThanReads) {
  const std::vector<std::size_t> lengths{10, 10};
  const auto bounds = partition_by_size(lengths, 5);
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), 2u);
  // Every read still has exactly one owner.
  EXPECT_EQ(partition_owner(bounds, 0), 0u);
  std::size_t owner1 = partition_owner(bounds, 1);
  EXPECT_LT(owner1, 5u);
}

TEST(PartitionBySize, OwnerLookupOutOfRangeAborts) {
  const std::vector<std::size_t> lengths{10, 10, 10};
  const auto bounds = partition_by_size(lengths, 2);
  EXPECT_DEATH((void)partition_owner(bounds, 3), "");
}

TEST(Sequence, IndexOutOfRangeAborts) {
  const Sequence seq = Sequence::from_string("ACGT");
  EXPECT_DEATH((void)seq.code_at(4), "");
}

TEST(PartitionBySize, EmptyInput) {
  const std::vector<std::size_t> lengths;
  const auto bounds = partition_by_size(lengths, 3);
  EXPECT_EQ(bounds, (std::vector<ReadId>{0, 0, 0, 0}));
}
