#include "proto/config.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "util/error.hpp"

namespace gnb::proto {

std::size_t compute_threads_from_env(std::size_t fallback) {
  const char* raw = std::getenv("GNB_COMPUTE_THREADS");
  if (raw == nullptr || *raw == '\0') return fallback;
  try {
    const unsigned long long value = std::stoull(raw);
    if (value == 0) return fallback;
    return static_cast<std::size_t>(value);
  } catch (const std::logic_error&) {
    return fallback;
  }
}

const char* to_string(BatchAlignerKind kind) {
  switch (kind) {
    case BatchAlignerKind::kScalar: return "scalar";
    case BatchAlignerKind::kSimd: return "simd";
    case BatchAlignerKind::kAuto: return "auto";
  }
  return "auto";
}

std::optional<BatchAlignerKind> parse_batch_aligner(std::string_view name) {
  if (name == "scalar") return BatchAlignerKind::kScalar;
  if (name == "simd") return BatchAlignerKind::kSimd;
  if (name == "auto") return BatchAlignerKind::kAuto;
  return std::nullopt;
}

BatchAlignerKind batch_aligner_from_env(BatchAlignerKind fallback) {
  const char* raw = std::getenv("GNB_BATCH_ALIGNER");
  if (raw == nullptr || *raw == '\0') return fallback;
  return parse_batch_aligner(raw).value_or(fallback);
}

const char* to_string(WireCompression mode) {
  switch (mode) {
    case WireCompression::kOff: return "off";
    case WireCompression::kPack2: return "pack2";
    case WireCompression::kPack2Rle: return "pack2-rle";
    case WireCompression::kAuto: return "auto";
  }
  return "auto";
}

std::optional<WireCompression> parse_wire_compression(std::string_view name) {
  if (name == "off") return WireCompression::kOff;
  if (name == "pack2") return WireCompression::kPack2;
  if (name == "pack2-rle") return WireCompression::kPack2Rle;
  if (name == "auto") return WireCompression::kAuto;
  return std::nullopt;
}

WireCompression wire_compression_from_env(WireCompression fallback) {
  const char* raw = std::getenv("GNB_WIRE_COMPRESSION");
  if (raw == nullptr || *raw == '\0') return fallback;
  return parse_wire_compression(raw).value_or(fallback);
}

void check_ranks_per_node(std::size_t ranks_per_node, bool bsp_engine, bool faults) {
  if (ranks_per_node <= 1) return;
  GNB_THROW_IF(!bsp_engine,
               "ranks_per_node = " << ranks_per_node << ": the two-level exchange is BSP-only");
  GNB_THROW_IF(faults, "ranks_per_node = " << ranks_per_node
                                           << ": the two-level exchange is fault-free only");
}

}  // namespace gnb::proto
