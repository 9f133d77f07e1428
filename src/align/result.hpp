#pragma once
// Alignment results and the seed type used by seed-and-extend.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "seq/read_store.hpp"
#include "util/wire.hpp"

namespace gnb::align {

/// An exact-match anchor between two sequences: positions of a shared
/// k-mer. `length` is the seed (k-mer) length. When `b_reversed` is true the
/// seed matches against the reverse complement of sequence b, and `b_pos`
/// is a position in that reverse-complemented coordinate system.
struct Seed {
  std::uint32_t a_pos = 0;
  std::uint32_t b_pos = 0;
  std::uint16_t length = 0;
  bool b_reversed = false;
};

/// How the aligned pair of reads overlap (paper Fig. 2).
enum class OverlapKind : std::uint8_t {
  kDovetailAB,     // suffix of A overlaps prefix of B
  kDovetailBA,     // suffix of B overlaps prefix of A
  kContainsB,      // B is contained in A
  kContainedInB,   // A is contained in B
};

const char* to_string(OverlapKind kind);

/// Result of one seed-and-extend pairwise alignment.
struct Alignment {
  std::int32_t score = 0;
  // Half-open aligned ranges on each sequence, in the orientation the
  // alignment was computed in (b possibly reverse-complemented).
  std::uint32_t a_begin = 0, a_end = 0;
  std::uint32_t b_begin = 0, b_end = 0;
  bool b_reversed = false;
  /// DP cells evaluated; the unit of the calibrated compute-cost model.
  std::uint64_t cells = 0;

  [[nodiscard]] std::uint32_t a_span() const { return a_end - a_begin; }
  [[nodiscard]] std::uint32_t b_span() const { return b_end - b_begin; }
  /// Overlap length proxy: mean of the two aligned spans.
  [[nodiscard]] std::uint32_t overlap_length() const { return (a_span() + b_span()) / 2; }
};

/// Acceptance criteria: "only those alignments which meet or exceed the
/// user or default scoring criteria are saved for output" (paper §3.2).
struct AlignmentFilter {
  std::int32_t min_score = 0;
  std::uint32_t min_overlap = 0;

  [[nodiscard]] bool accepts(const Alignment& alignment) const {
    return alignment.score >= min_score && alignment.overlap_length() >= min_overlap;
  }
};

/// A saved output record: which pair, plus the alignment.
struct AlignmentRecord {
  seq::ReadId read_a = seq::kInvalidRead;
  seq::ReadId read_b = seq::kInvalidRead;
  Alignment alignment;
};

/// The one wire encoding of a record, shared by recovery logs and assembly
/// manifests (33 bytes, little-endian): read_a, read_b, score, a_begin,
/// a_end, b_begin, b_end as u32, b_reversed as u8, cells as u64. Pinned by
/// a golden-bytes test.
inline void put_record(std::vector<std::uint8_t>& out, const AlignmentRecord& record) {
  wire::put<std::uint32_t>(out, record.read_a);
  wire::put<std::uint32_t>(out, record.read_b);
  wire::put<std::uint32_t>(out, static_cast<std::uint32_t>(record.alignment.score));
  wire::put<std::uint32_t>(out, record.alignment.a_begin);
  wire::put<std::uint32_t>(out, record.alignment.a_end);
  wire::put<std::uint32_t>(out, record.alignment.b_begin);
  wire::put<std::uint32_t>(out, record.alignment.b_end);
  wire::put<std::uint8_t>(out, record.alignment.b_reversed ? 1 : 0);
  wire::put<std::uint64_t>(out, record.alignment.cells);
}

inline AlignmentRecord get_record(std::span<const std::uint8_t> in, std::size_t& offset) {
  AlignmentRecord record;
  record.read_a = wire::get<std::uint32_t>(in, offset);
  record.read_b = wire::get<std::uint32_t>(in, offset);
  record.alignment.score = static_cast<std::int32_t>(wire::get<std::uint32_t>(in, offset));
  record.alignment.a_begin = wire::get<std::uint32_t>(in, offset);
  record.alignment.a_end = wire::get<std::uint32_t>(in, offset);
  record.alignment.b_begin = wire::get<std::uint32_t>(in, offset);
  record.alignment.b_end = wire::get<std::uint32_t>(in, offset);
  record.alignment.b_reversed = wire::get<std::uint8_t>(in, offset) != 0;
  record.alignment.cells = wire::get<std::uint64_t>(in, offset);
  return record;
}

}  // namespace gnb::align
