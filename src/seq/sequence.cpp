#include "seq/sequence.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

namespace gnb::seq {

namespace {
constexpr std::size_t words_for(std::size_t bases) { return (bases + 31) / 32; }

template <typename T>
void put_le(std::vector<std::uint8_t>& out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out.push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xFF));
}

template <typename T>
T get_le(std::span<const std::uint8_t> in, std::size_t& offset) {
  GNB_THROW_IF(offset + sizeof(T) > in.size(), "sequence deserialize: truncated buffer");
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    value |= static_cast<T>(in[offset + i]) << (8 * i);
  offset += sizeof(T);
  return value;
}
}  // namespace

Sequence Sequence::from_string(std::string_view bases) {
  Sequence s;
  s.size_ = bases.size();
  s.words_.assign(words_for(bases.size()), 0);
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const std::uint8_t code = dna_encode(bases[i]);
    GNB_THROW_IF(code == kInvalidCode, "invalid DNA character '" << printable(bases.substr(i, 1))
                                                                 << "' at position " << i);
    if (code == kN) {
      s.n_positions_.push_back(static_cast<std::uint32_t>(i));
      // N packs as A; the overlay restores it on read.
    } else {
      s.set_packed(i, code);
    }
  }
  return s;
}

Sequence Sequence::from_codes(std::span<const std::uint8_t> codes) {
  Sequence s;
  s.size_ = codes.size();
  s.words_.assign(words_for(codes.size()), 0);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    GNB_THROW_IF(codes[i] > kN, "invalid base code " << int{codes[i]});
    if (codes[i] == kN)
      s.n_positions_.push_back(static_cast<std::uint32_t>(i));
    else
      s.set_packed(i, codes[i]);
  }
  return s;
}

std::uint8_t Sequence::code_at(std::size_t pos) const {
  GNB_CHECK_MSG(pos < size_, "sequence index " << pos << " out of range " << size_);
  if (is_n(pos)) return kN;
  return packed_code(pos);
}

bool Sequence::is_n(std::size_t pos) const {
  return std::binary_search(n_positions_.begin(), n_positions_.end(),
                            static_cast<std::uint32_t>(pos));
}

std::string Sequence::to_string() const {
  std::string out(size_, '?');
  for (std::size_t i = 0; i < size_; ++i) out[i] = dna_decode(packed_code(i));
  for (auto np : n_positions_) out[np] = 'N';
  return out;
}

Sequence Sequence::reverse_complement() const {
  Sequence rc;
  rc.size_ = size_;
  rc.words_.assign(words_for(size_), 0);
  for (std::size_t i = 0; i < size_; ++i) {
    const std::size_t j = size_ - 1 - i;
    rc.set_packed(i, dna_complement(packed_code(j)) & 3u);
  }
  rc.n_positions_.reserve(n_positions_.size());
  for (auto it = n_positions_.rbegin(); it != n_positions_.rend(); ++it)
    rc.n_positions_.push_back(static_cast<std::uint32_t>(size_ - 1 - *it));
  return rc;
}

Sequence Sequence::subseq(std::size_t start, std::size_t len) const {
  GNB_CHECK_MSG(start + len <= size_, "subseq [" << start << ", " << start + len
                                                 << ") out of range " << size_);
  Sequence sub;
  sub.size_ = len;
  sub.words_.assign(words_for(len), 0);
  for (std::size_t i = 0; i < len; ++i) sub.set_packed(i, packed_code(start + i));
  const auto lo = std::lower_bound(n_positions_.begin(), n_positions_.end(),
                                   static_cast<std::uint32_t>(start));
  const auto hi = std::lower_bound(n_positions_.begin(), n_positions_.end(),
                                   static_cast<std::uint32_t>(start + len));
  for (auto it = lo; it != hi; ++it)
    sub.n_positions_.push_back(static_cast<std::uint32_t>(*it - start));
  return sub;
}

std::vector<std::uint8_t> Sequence::unpack() const {
  std::vector<std::uint8_t> codes(size_);
  for (std::size_t i = 0; i < size_; ++i) codes[i] = packed_code(i);
  for (auto np : n_positions_) codes[np] = kN;
  return codes;
}

std::size_t Sequence::footprint_bytes() const {
  return words_.size() * sizeof(std::uint64_t) + n_positions_.size() * sizeof(std::uint32_t) +
         sizeof(Sequence);
}

void Sequence::serialize(std::vector<std::uint8_t>& out) const {
  put_le<std::uint64_t>(out, size_);
  put_le<std::uint32_t>(out, static_cast<std::uint32_t>(n_positions_.size()));
  for (auto w : words_) put_le<std::uint64_t>(out, w);
  for (auto np : n_positions_) put_le<std::uint32_t>(out, np);
}

Sequence Sequence::deserialize(std::span<const std::uint8_t> in, std::size_t& offset) {
  Sequence s;
  s.size_ = get_le<std::uint64_t>(in, offset);
  const auto n_count = get_le<std::uint32_t>(in, offset);
  GNB_THROW_IF(n_count > s.size_, "sequence deserialize: corrupt N count");
  s.words_.resize(words_for(s.size_));
  for (auto& w : s.words_) w = get_le<std::uint64_t>(in, offset);
  s.n_positions_.resize(n_count);
  for (auto& np : s.n_positions_) np = get_le<std::uint32_t>(in, offset);
  return s;
}

std::vector<std::uint8_t> oriented_codes(const Sequence& s, bool reverse_complement) {
  std::vector<std::uint8_t> codes = s.unpack();
  if (reverse_complement) {
    std::reverse(codes.begin(), codes.end());
    for (auto& code : codes) code = dna_complement(code);
  }
  return codes;
}

double n_fraction(const Sequence& s) {
  if (s.empty()) return 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < s.size(); ++i) n += s.is_n(i) ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(s.size());
}

}  // namespace gnb::seq
