#include "seq/wire_codec.hpp"

#include <algorithm>
#include <bit>

#include "seq/alphabet.hpp"
#include "util/error.hpp"
#include "util/wire.hpp"

namespace gnb::seq {
namespace {

using proto::WireCompression;

/// Minimum homopolymer run that pack2-rle escapes: shorter runs cost more
/// to escape (4 literal symbols + a varint) than to emit literally.
constexpr std::uint64_t kMinRun = 4;

std::uint64_t varint_len(std::uint64_t v) {
  std::uint64_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v & 0x7Fu) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(std::span<const std::uint8_t> in, std::size_t& offset) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  while (true) {
    GNB_THROW_IF(offset >= in.size(), "wire codec: truncated varint at offset " << offset);
    const std::uint8_t byte = in[offset++];
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) break;
    shift += 7;
    GNB_THROW_IF(shift >= 64, "wire codec: varint overflows 64 bits");
  }
  return v;
}

/// N-position sidecar size: varint count + delta-coded positions.
std::uint64_t sidecar_bytes(std::span<const std::uint32_t> n_positions) {
  std::uint64_t bytes = varint_len(n_positions.size());
  std::uint64_t prev = 0;
  for (const std::uint32_t pos : n_positions) {
    bytes += varint_len(pos - prev);
    prev = pos;
  }
  return bytes;
}

void put_sidecar(std::span<const std::uint32_t> n_positions, std::vector<std::uint8_t>& out) {
  put_varint(out, n_positions.size());
  std::uint64_t prev = 0;
  for (const std::uint32_t pos : n_positions) {
    put_varint(out, pos - prev);
    prev = pos;
  }
}

constexpr std::uint64_t kEvenBits = 0x5555555555555555ULL;

/// The low `symbols` (< 32) 2-bit symbols of a word.
constexpr std::uint64_t low_symbols(unsigned symbols) {
  return (std::uint64_t{1} << (2 * symbols)) - 1;
}

/// One maximal homopolymer run of at least kMinRun symbols.
struct Run {
  std::uint64_t start;
  std::uint64_t length;
};

/// The maximal runs of >= kMinRun identical symbols among the first
/// `symbols` symbols of `words` (packed as Sequence::words() packs them),
/// in order. Word-parallel: `same` marks each symbol equal to the one
/// before it, and `deep` each symbol that is the kMinRun-th or later of
/// its run, so only runs of kMinRun or more cost a loop iteration.
std::vector<Run> long_runs(std::span<const std::uint64_t> words, std::uint64_t symbols) {
  static_assert(kMinRun == 4, "deep tests the three previous symbols");
  std::vector<Run> runs;
  std::uint64_t prev_word = 0;
  std::uint64_t prev_same = 0;
  std::uint64_t open_first = 0;  // first deep symbol of the run being walked
  std::uint64_t open_deep = 0;   // its deep symbols so far; 0 = no run open
  const auto close = [&] {
    runs.push_back({open_first - (kMinRun - 1), open_deep + (kMinRun - 1)});
    open_deep = 0;
  };
  for (std::size_t w = 0; w * 32 < symbols; ++w) {
    const std::uint64_t word = words[w];
    const std::uint64_t diff = word ^ (word << 2 | prev_word >> 62);
    std::uint64_t same = ~(diff | diff >> 1) & kEvenBits;
    if (w == 0) same &= ~std::uint64_t{1};  // the first symbol has no predecessor
    if (symbols - w * 32 < 32) same &= low_symbols(static_cast<unsigned>(symbols - w * 32));
    std::uint64_t deep =
        same & (same << 2 | prev_same >> 62) & (same << 4 | prev_same >> 60);
    prev_word = word;
    prev_same = same;

    if (open_deep > 0 && (deep & 1) == 0) close();
    while (deep != 0) {
      const unsigned at = static_cast<unsigned>(std::countr_zero(deep)) / 2;
      const std::uint64_t ahead = ~(deep >> (2 * at)) & kEvenBits;
      const unsigned count =
          ahead == 0 ? 32 - at : static_cast<unsigned>(std::countr_zero(ahead)) / 2;
      if (open_deep == 0) open_first = w * 32 + at;
      open_deep += count;
      if (at + count == 32) break;  // the run may go on in the next word
      close();
      deep &= ~(low_symbols(count) << (2 * at));
    }
  }
  if (open_deep > 0) close();
  return runs;
}

/// Packs 2-bit symbols 32 to a word, in Sequence::words() order, and hands
/// each full word — and at finish() the partial last one — to
/// `emit(word, symbols)`.
template <class Emit>
class SymbolPacker {
 public:
  explicit SymbolPacker(Emit emit) : emit_(emit) {}

  /// Append symbols [from, from + n) of `words`.
  void copy(std::span<const std::uint64_t> words, std::uint64_t from, std::uint64_t n) {
    while (n > 0) {
      const auto shift = static_cast<unsigned>(from % 32);
      const auto take = static_cast<unsigned>(std::min<std::uint64_t>(n, 32 - shift));
      std::uint64_t bits = words[from / 32] >> (2 * shift);
      if (take < 32) bits &= low_symbols(take);
      put(bits, take);
      from += take;
      n -= take;
    }
  }

  /// Append `n` copies of `code`.
  void fill(std::uint8_t code, std::uint64_t n) {
    const std::uint64_t pattern = code * kEvenBits;
    for (; n >= 32; n -= 32) put(pattern, 32);
    if (n > 0) put(pattern & low_symbols(static_cast<unsigned>(n)), static_cast<unsigned>(n));
  }

  void finish() {
    if (count_ > 0) emit_(held_, count_);
  }

 private:
  /// Append `take` (1..32) symbols, the low 2 * take bits of `bits`.
  void put(std::uint64_t bits, unsigned take) {
    held_ |= bits << (2 * count_);
    if (count_ + take < 32) {
      count_ += take;
      return;
    }
    emit_(held_, 32);
    held_ = count_ == 0 ? 0 : bits >> (2 * (32 - count_));
    count_ = count_ + take - 32;
  }

  Emit emit_;
  std::uint64_t held_ = 0;
  unsigned count_ = 0;  // symbols in held_, < 32
};

/// A SymbolPacker appending packed bytes to `out`: four symbols to a byte,
/// symbol i of a byte at bits 2i, bytes in stream order.
auto byte_packer(std::vector<std::uint8_t>& out) {
  return SymbolPacker([&out](std::uint64_t word, unsigned symbols) {
    for (unsigned byte = 0; byte < (symbols + 3) / 4; ++byte)
      out.push_back(static_cast<std::uint8_t>(word >> (8 * byte)));
  });
}

/// The first `symbols` symbols of a packed byte stream, as words.
std::vector<std::uint64_t> unpack_bytes(std::span<const std::uint8_t> bytes,
                                        std::uint64_t symbols) {
  std::vector<std::uint64_t> words((symbols + 31) / 32, 0);
  for (std::size_t i = 0; i < (symbols + 3) / 4; ++i)
    words[i / 8] |= std::uint64_t{bytes[i]} << (8 * (i % 8));
  return words;
}

std::uint64_t frame_overhead(std::uint64_t length) {
  return sizeof(std::uint32_t) + 1 /*codec byte*/ + varint_len(length);
}

std::uint64_t pack2_body_bytes(const Sequence& s) {
  return sidecar_bytes(s.n_positions()) + (s.size() + 3) / 4;
}

std::uint64_t rle_body_bytes(const Sequence& s, const std::vector<Run>& runs) {
  std::uint64_t symbols = s.size();
  std::uint64_t table = varint_len(runs.size());
  for (const Run& run : runs) {
    symbols -= run.length - kMinRun;
    table += varint_len(run.length - kMinRun);
  }
  return sidecar_bytes(s.n_positions()) + table + (symbols + 3) / 4;
}

}  // namespace

void encode_read(const Read& read, WireCompression mode, std::vector<std::uint8_t>& out) {
  const Sequence& s = read.sequence;
  std::vector<Run> runs;
  if (mode == WireCompression::kPack2Rle || mode == WireCompression::kAuto)
    runs = long_runs(s.words(), s.size());
  // kAuto: the smaller of pack2 / pack2-rle, ties to pack2 (the cheaper
  // decode).
  const WireCompression codec =
      mode != WireCompression::kAuto ? mode
      : rle_body_bytes(s, runs) < pack2_body_bytes(s) ? WireCompression::kPack2Rle
                                                      : WireCompression::kPack2;
  wire::put<std::uint32_t>(out, read.id);
  out.push_back(static_cast<std::uint8_t>(codec));
  put_varint(out, s.size());
  switch (codec) {
    case WireCompression::kOff: {
      const std::vector<std::uint8_t> codes = s.unpack();
      out.insert(out.end(), codes.begin(), codes.end());
      break;
    }
    case WireCompression::kPack2: {
      put_sidecar(s.n_positions(), out);
      auto packer = byte_packer(out);
      packer.copy(s.words(), 0, s.size());
      packer.finish();
      break;
    }
    case WireCompression::kPack2Rle: {
      // A run keeps its first kMinRun symbols in the stream; the rest
      // become its escape.
      put_sidecar(s.n_positions(), out);
      put_varint(out, runs.size());
      for (const Run& run : runs) put_varint(out, run.length - kMinRun);
      auto packer = byte_packer(out);
      std::uint64_t from = 0;
      for (const Run& run : runs) {
        packer.copy(s.words(), from, run.start + kMinRun - from);
        from = run.start + run.length;
      }
      packer.copy(s.words(), from, s.size() - from);
      packer.finish();
      break;
    }
    case WireCompression::kAuto:
      GNB_CHECK_MSG(false, "kAuto must resolve before framing");
  }
}

std::uint64_t encoded_read_bytes(const Read& read, WireCompression mode) {
  const Sequence& s = read.sequence;
  const std::uint64_t overhead = frame_overhead(s.size());
  switch (mode) {
    case WireCompression::kOff:
      return overhead + s.size();
    case WireCompression::kPack2:
      return overhead + pack2_body_bytes(s);
    case WireCompression::kPack2Rle:
      return overhead + rle_body_bytes(s, long_runs(s.words(), s.size()));
    case WireCompression::kAuto:
      break;
  }
  return overhead +
         std::min(pack2_body_bytes(s), rle_body_bytes(s, long_runs(s.words(), s.size())));
}

std::uint64_t raw_read_bytes(const Read& read) {
  return frame_overhead(read.sequence.size()) + read.sequence.size();
}

Read decode_read(std::span<const std::uint8_t> in, std::size_t& offset) {
  Read read;
  read.id = wire::get<std::uint32_t>(in, offset);
  GNB_THROW_IF(offset >= in.size(), "wire codec: truncated frame header");
  const std::uint8_t codec_byte = in[offset++];
  GNB_THROW_IF(codec_byte > static_cast<std::uint8_t>(WireCompression::kPack2Rle),
               "wire codec: unknown codec byte " << static_cast<int>(codec_byte));
  const auto codec = static_cast<WireCompression>(codec_byte);
  const std::uint64_t length = get_varint(in, offset);
  std::vector<std::uint32_t> n_positions;

  if (codec == WireCompression::kOff) {
    GNB_THROW_IF(length > in.size() - offset, "wire codec: truncated off payload");
    std::vector<std::uint64_t> words((length + 31) / 32, 0);
    for (std::uint64_t i = 0; i < length; ++i) {
      const std::uint8_t code = in[offset++];
      GNB_THROW_IF(code > kN, "wire codec: invalid base code " << static_cast<int>(code));
      if (code == kN)
        n_positions.push_back(static_cast<std::uint32_t>(i));
      else
        words[i / 32] |= std::uint64_t{code} << (2 * (i % 32));
    }
    read.sequence = Sequence::from_words(length, std::move(words), std::move(n_positions));
    return read;
  }

  // N sidecar, shared by both packed codecs.
  const std::uint64_t n_count = get_varint(in, offset);
  GNB_THROW_IF(n_count > length, "wire codec: N sidecar larger than read");
  n_positions.reserve(n_count);
  std::uint64_t pos = 0;
  for (std::uint64_t i = 0; i < n_count; ++i) {
    pos += get_varint(in, offset);
    GNB_THROW_IF(pos >= length, "wire codec: N position out of range");
    GNB_THROW_IF(i > 0 && pos <= n_positions.back(), "wire codec: unsorted N sidecar");
    n_positions.push_back(static_cast<std::uint32_t>(pos));
  }

  if (codec == WireCompression::kPack2) {
    const std::uint64_t packed = (length + 3) / 4;
    GNB_THROW_IF(packed > in.size() - offset, "wire codec: truncated pack2 payload");
    std::vector<std::uint64_t> words = unpack_bytes(in.subspan(offset), length);
    offset += packed;
    read.sequence = Sequence::from_words(length, std::move(words), std::move(n_positions));
    return read;
  }

  // pack2-rle: the reduced stream holds length - sum(extras) symbols. In
  // each of its runs of identical symbols, every kMinRun-th symbol
  // consumes the next escape and repeats extra more times.
  const std::uint64_t n_runs = get_varint(in, offset);
  GNB_THROW_IF(n_runs > length, "wire codec: escape table larger than read");
  std::vector<std::uint64_t> extras;
  extras.reserve(n_runs);
  std::uint64_t reduced = length;
  for (std::uint64_t i = 0; i < n_runs; ++i) {
    extras.push_back(get_varint(in, offset));
    GNB_THROW_IF(extras.back() > reduced, "wire codec: run overflows read");
    reduced -= extras.back();
  }
  const std::uint64_t packed = (reduced + 3) / 4;
  GNB_THROW_IF(packed > in.size() - offset, "wire codec: truncated pack2-rle payload");
  const std::vector<std::uint64_t> stream = unpack_bytes(in.subspan(offset), reduced);
  offset += packed;

  std::vector<std::uint64_t> words;
  words.reserve((length + 31) / 32);
  SymbolPacker packer([&words](std::uint64_t word, unsigned) { words.push_back(word); });
  std::size_t next_extra = 0;
  std::uint64_t from = 0;
  for (const Run& run : long_runs(stream, reduced)) {
    for (std::uint64_t at = run.start + kMinRun - 1; at < run.start + run.length;
         at += kMinRun) {
      GNB_THROW_IF(next_extra >= extras.size(), "wire codec: escape table underflow");
      packer.copy(stream, from, at + 1 - from);
      from = at + 1;
      packer.fill(static_cast<std::uint8_t>((stream[at / 32] >> (2 * (at % 32))) & 3),
                  extras[next_extra++]);
    }
  }
  GNB_THROW_IF(next_extra != extras.size(), "wire codec: unconsumed escape entries");
  packer.copy(stream, from, reduced - from);
  packer.finish();
  read.sequence = Sequence::from_words(length, std::move(words), std::move(n_positions));
  return read;
}

std::uint64_t modeled_wire_read_bytes(std::uint64_t length, WireCompression mode) {
  const std::uint64_t overhead = frame_overhead(length);
  switch (mode) {
    case WireCompression::kOff:
      return overhead + length;
    case WireCompression::kPack2:
    case WireCompression::kAuto:  // random DNA: rle == pack2 + empty table
      return overhead + varint_len(0) + (length + 3) / 4;
    case WireCompression::kPack2Rle:
      return overhead + varint_len(0) + varint_len(0) + (length + 3) / 4;
  }
  return overhead + length;
}

}  // namespace gnb::seq
