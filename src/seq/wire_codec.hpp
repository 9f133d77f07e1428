#pragma once
// Wire codec for read payloads on the exchange (DESIGN.md §15).
//
// Sequences travel between ranks in self-describing frames:
//
//   [u32 read id][u8 codec][varint length] [payload...]
//
//   codec = off        payload = length code bytes (0..4, N inline)
//   codec = pack2      payload = [varint n_count][n_count varint deltas]
//                                [ceil(length/4) packed bytes]
//   codec = pack2-rle  payload = [varint n_count][n_count varint deltas]
//                                [varint n_runs][n_runs varint run extras]
//                                [ceil(symbols/4) packed bytes]
//
// `off` is the paper-faithful char exchange: one byte per base, the
// baseline every raw-byte counter reports. `pack2` packs four 2-bit codes
// per byte with N positions in a delta-coded sidecar (N packs as A, the
// same convention seq::Sequence uses internally). `pack2-rle` additionally
// run-length-escapes homopolymer runs: a maximal run of >= 4 identical
// codes is emitted as exactly 4 symbols plus a varint(run - 4) entry in
// the escape table, so long-read homopolymer stretches collapse to O(1)
// bytes. The codec byte always names the concrete codec (`auto` resolves
// per read before framing), so a mixed stream decodes without context.
//
// The packed codecs never unpack a read. A pack2 body is the bytes of
// Sequence::words() in little-endian order (symbol i of a byte at bits 2i),
// cut to ceil(length/4) bytes; the N sidecar comes from the N list; the
// runs pack2-rle escapes, and so the pack2-rle and `auto` sizes, come from
// one word-parallel scan of the words. Decoding fills the words directly.
//
// Invariants (tests/test_wire):
//   * exact round trip: decode(encode(read)) == read for every mode,
//     including empty, all-N, and all-homopolymer reads;
//   * exact sizing: encoded_read_bytes(read, mode) equals the bytes
//     encode_read appends, byte for byte — the BSP round planner divides
//     budgets by these sizes and asserts the executed round matches;
//   * `auto` never exceeds the smaller of pack2 / pack2-rle.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "proto/config.hpp"
#include "seq/read_store.hpp"

namespace gnb::seq {

/// Append one wire frame for `read` to `out`. `kAuto` resolves to the
/// smaller of pack2 / pack2-rle for this read (ties prefer pack2, the
/// cheaper decode). The read's name is not shipped, matching
/// serialize_read.
void encode_read(const Read& read, proto::WireCompression mode, std::vector<std::uint8_t>& out);

/// Exact number of bytes encode_read(read, mode) appends.
[[nodiscard]] std::uint64_t encoded_read_bytes(const Read& read, proto::WireCompression mode);

/// Bytes of the same read in an `off` frame: the uncompressed baseline
/// that wire.raw_bytes counters report, invariant across codecs.
[[nodiscard]] std::uint64_t raw_read_bytes(const Read& read);

/// Decode one frame starting at `offset`; advances `offset` past it.
[[nodiscard]] Read decode_read(std::span<const std::uint8_t> in, std::size_t& offset);

/// Analytic frame size for a model read of `length` N-free bases — the
/// simulator has lengths but no sequences. For pack2-rle the model assumes
/// no compressible runs (random DNA compresses negligibly), i.e. the
/// pack2 size plus an empty escape table; `auto` therefore models as
/// pack2.
[[nodiscard]] std::uint64_t modeled_wire_read_bytes(std::uint64_t length,
                                                    proto::WireCompression mode);

}  // namespace gnb::seq
