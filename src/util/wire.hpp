#pragma once
// Little-endian wire packing helpers for exchange buffers and RPC payloads.

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace gnb::wire {

template <typename T>
void put(std::vector<std::uint8_t>& out, T value) {
  static_assert(std::is_unsigned_v<T> || std::is_same_v<T, std::uint8_t>);
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out.push_back(static_cast<std::uint8_t>((value >> (8 * i)) & 0xFF));
}

template <typename T>
T get(std::span<const std::uint8_t> in, std::size_t& offset) {
  GNB_THROW_IF(offset + sizeof(T) > in.size(), "wire: truncated buffer at offset " << offset);
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    value |= static_cast<T>(in[offset + i]) << (8 * i);
  offset += sizeof(T);
  return value;
}

/// FNV-1a 64-bit payload checksum. Not cryptographic — it guards exchange
/// buffers against corruption (truncation, reordering, bit flips), the
/// per-round verification the BSP engine applies to every aggregated
/// payload it receives.
inline std::uint64_t checksum(std::span<const std::uint8_t> data) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  for (const std::uint8_t byte : data) {
    hash ^= byte;
    hash *= 0x00000100000001B3ULL;
  }
  return hash;
}

/// Bytes the framed-checksum header occupies at the front of a buffer.
inline constexpr std::size_t kChecksumBytes = sizeof(std::uint64_t);

/// Reserve a checksum header at the start of `out` (call before packing the
/// payload), to be filled by seal_checksum once the payload is complete.
inline void begin_checksum(std::vector<std::uint8_t>& out) {
  // Byte by byte: GCC 12 reports a false -Warray-bounds for insert() or
  // resize() of a fixed count here once the call is inlined.
  for (std::size_t i = 0; i < kChecksumBytes; ++i) out.push_back(0);
}

/// Overwrite the header written by begin_checksum with the checksum of
/// everything packed after it. `start` is the offset begin_checksum wrote at.
inline void seal_checksum(std::vector<std::uint8_t>& out, std::size_t start = 0) {
  GNB_THROW_IF(start + kChecksumBytes > out.size(), "wire: no checksum header to seal");
  const std::uint64_t sum =
      checksum(std::span<const std::uint8_t>(out).subspan(start + kChecksumBytes));
  for (std::size_t i = 0; i < kChecksumBytes; ++i)
    out[start + i] = static_cast<std::uint8_t>((sum >> (8 * i)) & 0xFF);
}

/// Verify a buffer framed by begin_checksum/seal_checksum: returns true and
/// advances `offset` past the header when the payload checksum matches.
[[nodiscard]] inline bool verify_checksum(std::span<const std::uint8_t> in,
                                          std::size_t& offset) {
  if (offset + kChecksumBytes > in.size()) return false;
  std::size_t cursor = offset;
  const std::uint64_t expected = get<std::uint64_t>(in, cursor);
  if (checksum(in.subspan(cursor)) != expected) return false;
  offset = cursor;
  return true;
}

}  // namespace gnb::wire
