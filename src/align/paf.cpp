#include "align/paf.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <sstream>
#include <string_view>

#include "util/error.hpp"

namespace gnb::align {

namespace {

/// Every field of `paf` but the two names, which write_paf reads from the
/// store instead of copying them for every record.
void fill_numbers(const AlignmentRecord& record, const seq::ReadStore& reads,
                  const Scoring& scoring, PafRecord& paf) {
  const std::size_t query_length = reads.get(record.read_a).length();
  const std::size_t target_length = reads.get(record.read_b).length();
  const Alignment& alignment = record.alignment;

  paf.query_length = query_length;
  paf.query_begin = alignment.a_begin;
  paf.query_end = alignment.a_end;
  paf.reverse_strand = alignment.b_reversed;
  paf.target_length = target_length;
  if (alignment.b_reversed) {
    // Alignment coordinates are on the reverse complement of the target;
    // PAF wants forward-strand target coordinates.
    paf.target_begin = target_length - alignment.b_end;
    paf.target_end = target_length - alignment.b_begin;
  } else {
    paf.target_begin = alignment.b_begin;
    paf.target_end = alignment.b_end;
  }
  paf.block_length = std::max(alignment.a_span(), alignment.b_span());
  // Invert the scoring scheme to estimate matches: treating the block as M
  // matches and (block - M) mismatches, score = M*match + (block - M)*mismatch,
  // so M = (score - block*mismatch) / (match - mismatch). Exact when the
  // alignment has no indels; a standard approximation otherwise, clamped to
  // the block length. (Reduces to (block + score) / 2 for +1/-1 scoring.)
  const auto block = static_cast<std::int64_t>(paf.block_length);
  const std::int64_t denom =
      static_cast<std::int64_t>(scoring.match) - static_cast<std::int64_t>(scoring.mismatch);
  std::int64_t matches = block;
  if (denom > 0)
    matches = (alignment.score - block * static_cast<std::int64_t>(scoring.mismatch)) / denom;
  paf.matches = static_cast<std::uint64_t>(std::clamp<std::int64_t>(matches, 0, block));
  paf.score = alignment.score;
}

template <class Int>
void append_number(std::string& out, Int value) {
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof digits, value).ptr);
}

/// Append `paf`'s line, named `query_name` and `target_name`, to `out`
/// (no trailing newline).
void append_paf(std::string& out, std::string_view query_name, std::string_view target_name,
                const PafRecord& paf) {
  out += query_name;
  out += '\t';
  append_number(out, paf.query_length);
  out += '\t';
  append_number(out, paf.query_begin);
  out += '\t';
  append_number(out, paf.query_end);
  out += paf.reverse_strand ? "\t-\t" : "\t+\t";
  out += target_name;
  out += '\t';
  append_number(out, paf.target_length);
  out += '\t';
  append_number(out, paf.target_begin);
  out += '\t';
  append_number(out, paf.target_end);
  out += '\t';
  append_number(out, paf.matches);
  out += '\t';
  append_number(out, paf.block_length);
  out += '\t';
  append_number(out, paf.mapq);
  out += "\tAS:i:";
  append_number(out, paf.score);
}

}  // namespace

PafRecord to_paf(const AlignmentRecord& record, const seq::ReadStore& reads,
                 const Scoring& scoring) {
  PafRecord paf;
  paf.query_name = reads.get(record.read_a).name;
  paf.target_name = reads.get(record.read_b).name;
  fill_numbers(record, reads, scoring, paf);
  return paf;
}

std::string format_paf(const PafRecord& record) {
  std::string line;
  append_paf(line, record.query_name, record.target_name, record);
  return line;
}

PafRecord parse_paf(const std::string& line) {
  std::istringstream iss(line);
  std::vector<std::string> fields;
  std::string field;
  while (std::getline(iss, field, '\t')) fields.push_back(field);
  GNB_THROW_IF(fields.size() < 12, "PAF: expected >= 12 fields, got " << fields.size());

  PafRecord record;
  try {
    record.query_name = fields[0];
    record.query_length = std::stoull(fields[1]);
    record.query_begin = std::stoull(fields[2]);
    record.query_end = std::stoull(fields[3]);
    GNB_THROW_IF(fields[4] != "+" && fields[4] != "-", "PAF: bad strand '" << fields[4] << "'");
    record.reverse_strand = fields[4] == "-";
    record.target_name = fields[5];
    record.target_length = std::stoull(fields[6]);
    record.target_begin = std::stoull(fields[7]);
    record.target_end = std::stoull(fields[8]);
    record.matches = std::stoull(fields[9]);
    record.block_length = std::stoull(fields[10]);
    record.mapq = static_cast<std::uint32_t>(std::stoul(fields[11]));
  } catch (const std::logic_error& e) {
    throw Error(std::string("PAF: malformed numeric field: ") + e.what());
  }
  for (std::size_t i = 12; i < fields.size(); ++i) {
    if (fields[i].rfind("AS:i:", 0) == 0)
      record.score = static_cast<std::int32_t>(std::stol(fields[i].substr(5)));
  }
  return record;
}

void write_paf(std::ostream& out, std::span<const AlignmentRecord> records,
               const seq::ReadStore& reads, const Scoring& scoring) {
  // Lines are formatted into one reused buffer, written out in blocks.
  constexpr std::size_t kBlockBytes = std::size_t{1} << 16;
  std::string block;
  block.reserve(kBlockBytes + 512);
  PafRecord numbers;
  for (const auto& record : records) {
    fill_numbers(record, reads, scoring, numbers);
    append_paf(block, reads.get(record.read_a).name, reads.get(record.read_b).name, numbers);
    block += '\n';
    if (block.size() >= kBlockBytes) {
      out.write(block.data(), static_cast<std::streamsize>(block.size()));
      block.clear();
    }
  }
  out.write(block.data(), static_cast<std::streamsize>(block.size()));
  GNB_THROW_IF(!out, "PAF write failed");
}

}  // namespace gnb::align
