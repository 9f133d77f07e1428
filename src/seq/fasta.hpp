#pragma once
// Streaming FASTA / FASTQ readers and a FASTA writer.
//
// Handles multi-line records, CRLF input, and '>'/'@' headers with optional
// descriptions. The paper's workloads are long-read FASTA/FASTQ downloads;
// our synthetic datasets round-trip through the same format so the pipeline
// is usable on real files too.

#include <iosfwd>
#include <istream>
#include <optional>
#include <string>

#include "seq/read_store.hpp"
#include "seq/sequence.hpp"

namespace gnb::seq {

struct FastaRecord {
  std::string name;     // header up to first whitespace
  std::string comment;  // remainder of header line (may be empty)
  Sequence sequence;
};

/// Pull-style FASTA parser over any istream.
class FastaReader {
 public:
  explicit FastaReader(std::istream& in);

  /// Next record, or nullopt at end of stream. Throws gnb::Error on
  /// malformed input.
  std::optional<FastaRecord> next();

 private:
  std::istream& in_;
  std::string pending_header_;
  bool saw_header_ = false;
};

/// Pull-style FASTQ parser (4-line records; quality line is validated for
/// length then discarded — alignment here does not use base qualities).
class FastqReader {
 public:
  explicit FastqReader(std::istream& in);
  std::optional<FastaRecord> next();

 private:
  std::istream& in_;
  std::size_t line_no_ = 0;
};

/// Read every record of a FASTA stream (FASTQ with `fastq`) into a
/// ReadStore in input order, so record n gets id n - 1. Throws gnb::Error on
/// malformed input and on a name an earlier record already used: PAF and
/// GFA name reads, so a repeated name would make the output ambiguous. The
/// error names the duplicate and both record numbers.
ReadStore read_records(std::istream& in, bool fastq);

/// Write records with fixed line wrapping.
class FastaWriter {
 public:
  explicit FastaWriter(std::ostream& out, std::size_t wrap = 80);
  void write(const FastaRecord& record);

 private:
  std::ostream& out_;
  std::size_t wrap_;
};

}  // namespace gnb::seq
