#include "seq/fasta.hpp"

#include <istream>
#include <ostream>
#include <tuple>
#include <unordered_map>

#include "util/error.hpp"

namespace gnb::seq {

namespace {
void strip_cr(std::string& line) {
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

std::pair<std::string, std::string> split_header(const std::string& line, char marker) {
  GNB_THROW_IF(line.empty() || line[0] != marker, "malformed header line: " << line);
  const std::string body = line.substr(1);
  const auto ws = body.find_first_of(" \t");
  if (ws == std::string::npos) return {body, ""};
  return {body.substr(0, ws), body.substr(ws + 1)};
}
}  // namespace

FastaReader::FastaReader(std::istream& in) : in_(in) {}

std::optional<FastaRecord> FastaReader::next() {
  std::string line;
  if (!saw_header_) {
    while (std::getline(in_, line)) {
      strip_cr(line);
      if (line.empty()) continue;
      GNB_THROW_IF(line[0] != '>', "FASTA: expected '>' header, got: " << line);
      pending_header_ = line;
      saw_header_ = true;
      break;
    }
    if (!saw_header_) return std::nullopt;
  }

  FastaRecord record;
  std::tie(record.name, record.comment) = split_header(pending_header_, '>');
  std::string bases;
  saw_header_ = false;
  while (std::getline(in_, line)) {
    strip_cr(line);
    if (line.empty()) continue;
    if (line[0] == '>') {
      pending_header_ = line;
      saw_header_ = true;
      break;
    }
    bases += line;
  }
  GNB_THROW_IF(bases.empty(), "FASTA: record '" << record.name << "' has no sequence");
  record.sequence = Sequence::from_string(bases);
  return record;
}

FastqReader::FastqReader(std::istream& in) : in_(in) {}

std::optional<FastaRecord> FastqReader::next() {
  std::string header, bases, plus, quals;
  // Skip blank lines between records.
  while (std::getline(in_, header)) {
    ++line_no_;
    strip_cr(header);
    if (!header.empty()) break;
  }
  if (header.empty()) return std::nullopt;
  GNB_THROW_IF(header[0] != '@', "FASTQ line " << line_no_ << ": expected '@' header");
  GNB_THROW_IF(!std::getline(in_, bases), "FASTQ: truncated record at line " << line_no_);
  ++line_no_;
  strip_cr(bases);
  GNB_THROW_IF(!std::getline(in_, plus), "FASTQ: truncated record at line " << line_no_);
  ++line_no_;
  strip_cr(plus);
  GNB_THROW_IF(plus.empty() || plus[0] != '+', "FASTQ line " << line_no_ << ": expected '+'");
  GNB_THROW_IF(!std::getline(in_, quals), "FASTQ: truncated record at line " << line_no_);
  ++line_no_;
  strip_cr(quals);
  GNB_THROW_IF(quals.size() != bases.size(),
               "FASTQ line " << line_no_ << ": quality length " << quals.size()
                             << " != sequence length " << bases.size());
  FastaRecord record;
  std::tie(record.name, record.comment) = split_header(header, '@');
  record.sequence = Sequence::from_string(bases);
  return record;
}

ReadStore read_records(std::istream& in, bool fastq) {
  ReadStore store;
  std::unordered_map<std::string, std::size_t> first_record;  // name -> record number
  const auto add = [&](FastaRecord& record) {
    const std::size_t number = store.size() + 1;
    const auto [it, fresh] = first_record.emplace(record.name, number);
    GNB_THROW_IF(!fresh, "duplicate read name '" << record.name << "' in records " << it->second
                                                 << " and " << number);
    store.add(std::move(record.name), std::move(record.sequence));
  };
  if (fastq) {
    FastqReader reader(in);
    while (auto record = reader.next()) add(*record);
  } else {
    FastaReader reader(in);
    while (auto record = reader.next()) add(*record);
  }
  return store;
}

FastaWriter::FastaWriter(std::ostream& out, std::size_t wrap) : out_(out), wrap_(wrap) {
  GNB_CHECK(wrap_ > 0);
}

void FastaWriter::write(const FastaRecord& record) {
  out_ << '>' << record.name;
  if (!record.comment.empty()) out_ << ' ' << record.comment;
  out_ << '\n';
  const std::string bases = record.sequence.to_string();
  for (std::size_t pos = 0; pos < bases.size(); pos += wrap_)
    out_ << bases.substr(pos, wrap_) << '\n';
  GNB_THROW_IF(!out_, "FASTA write failed");
}

}  // namespace gnb::seq
