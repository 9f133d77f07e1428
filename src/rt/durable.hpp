#pragma once
// A stable-storage stand-in for the threaded runtime: per-rank phase
// manifests and append-only completion logs that *survive the writer's
// death*. On a real machine this is the burst buffer / parallel file
// system a long-running alignment phase checkpoints to; here it is a
// mutex-guarded byte store owned by rt::World, with the three properties
// recovery depends on:
//
//   * durability — bytes written before a rank dies remain readable by the
//     survivors (a dead rank's in-memory state is gone, its store is not);
//   * crash-atomic writes — every record is framed
//     [u32 length][u64 fingerprint][payload] and installed in one move
//     under the lock (the in-memory analogue of write-temp + rename): a
//     record is either fully present or absent, and a *torn* record (a
//     truncated tail, a flipped bit) fails validation instead of being
//     parsed as garbage;
//   * healing reads — readers validate every record. A log read returns the
//     longest valid prefix, stopping cleanly at the first corrupt record
//     (the lost suffix is re-derived by recovery re-execution); a manifest
//     read falls back to the last valid ancestor manifest. Detections are
//     counted once per record into corrupt_records()/fallback_records() so
//     the healing is observable, never silent.
//
// The payloads are opaque to the runtime; core::RecoveryContext defines the
// entry encoding. This is the one durable-storage scheme: record framing,
// validation on read, ancestor fallback and the record kinds that can be
// corrupted are all decided here. Corruption is injected at write time
// through the optional rt::FaultInjector hook (corrupt@RANK:KIND:SEQ events;
// kind 1 = manifest, kind 2 = log record — the only kinds FaultPlan::parse
// accepts), mutating the *framed* bytes so the fingerprint genuinely
// mismatches on load.

#include <cstdint>
#include <cstring>
#include <mutex>
#include <vector>

#include "rt/fault.hpp"
#include "util/wire.hpp"

namespace gnb::rt {

class DurableStore {
 public:
  using Bytes = std::vector<std::uint8_t>;

  /// Durable-record kinds addressable by corrupt@RANK:KIND:SEQ.
  static constexpr std::uint32_t kKindManifest = 1;
  static constexpr std::uint32_t kKindLogRecord = 2;

  /// Reset for a new phase: `nranks` empty manifests and logs.
  void reset(std::size_t nranks) {
    std::lock_guard<std::mutex> lock(mutex_);
    manifests_.assign(nranks, PerRank{});
    logs_.assign(nranks, PerRankLog{});
    bytes_written_ = 0;
    corrupt_records_ = 0;
    fallback_records_ = 0;
  }

  /// Install the write-time corruption oracle (nullptr disables injection).
  void set_injector(const FaultInjector* injector) {
    std::lock_guard<std::mutex> lock(mutex_);
    injector_ = injector;
  }

  /// Publish rank `r`'s phase-start manifest. The previous manifest, if
  /// valid, is retained as the fallback ancestor. Returns the payload bytes
  /// charged to stable storage.
  std::uint64_t write_manifest(std::uint32_t r, Bytes bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto charged = static_cast<std::uint64_t>(bytes.size());
    bytes_written_ += charged;
    PerRank& slot = manifests_[r];
    Bytes framed = frame(bytes);
    if (injector_ != nullptr &&
        injector_->corrupts_record(r, kKindManifest, slot.writes))
      injector_->corrupt_payload(r, kKindManifest, slot.writes, framed);
    ++slot.writes;
    // Only a *valid* current record is promoted to ancestor: falling back
    // must land on the last state that actually validated.
    if (validate(slot.current) != nullptr) slot.ancestor = std::move(slot.current);
    slot.current = std::move(framed);
    slot.counted = false;
    slot.fallback_counted = false;
    return charged;
  }

  /// Read rank `r`'s manifest payload, healing through the ancestor chain:
  /// a corrupt current record is quarantined (counted once) and the last
  /// valid ancestor is returned instead; empty when nothing validates.
  [[nodiscard]] Bytes manifest(std::uint32_t r) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const PerRank& slot = manifests_[r];
    if (const Bytes* payload = validate(slot.current)) return *payload;
    if (!slot.current.empty() && !slot.counted) {
      ++corrupt_records_;
      slot.counted = true;
    }
    if (const Bytes* payload = validate(slot.ancestor)) {
      if (!slot.fallback_counted) {
        ++fallback_records_;
        slot.fallback_counted = true;
      }
      return *payload;
    }
    return {};
  }

  /// Append one serialized record to rank `r`'s completion log. Returns the
  /// payload bytes charged.
  std::uint64_t append_log(std::uint32_t r, const Bytes& bytes) {
    std::lock_guard<std::mutex> lock(mutex_);
    PerRankLog& slot = logs_[r];
    Bytes framed = frame(bytes);
    if (injector_ != nullptr &&
        injector_->corrupts_record(r, kKindLogRecord, slot.appends))
      injector_->corrupt_payload(r, kKindLogRecord, slot.appends, framed);
    ++slot.appends;
    slot.records.push_back(std::move(framed));
    bytes_written_ += bytes.size();
    return bytes.size();
  }

  /// Read rank `r`'s completion log: the concatenated payloads of the
  /// longest valid record prefix. The first invalid record (torn tail,
  /// flipped bit) stops the read cleanly — every reader sees the same
  /// prefix, so recovery's evidence scan stays deterministic — and is
  /// counted once as corrupt.
  [[nodiscard]] Bytes log(std::uint32_t r) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const PerRankLog& slot = logs_[r];
    Bytes out;
    for (std::size_t i = 0; i < slot.records.size(); ++i) {
      const Bytes* payload = validate(slot.records[i]);
      if (payload == nullptr) {
        if (slot.counted_invalid != i) {
          ++corrupt_records_;
          slot.counted_invalid = i;
        }
        break;
      }
      out.insert(out.end(), payload->begin(), payload->end());
    }
    return out;
  }

  /// Test/fault hook: tear the tail of rank `r`'s most recent log record,
  /// keeping only `keep` bytes of its framed form — the shape of a writer
  /// dying mid-write on a real file system.
  void truncate_last_log_record(std::uint32_t r, std::size_t keep) {
    std::lock_guard<std::mutex> lock(mutex_);
    PerRankLog& slot = logs_[r];
    if (slot.records.empty()) return;
    Bytes& last = slot.records.back();
    if (keep < last.size()) last.resize(keep);
  }

  [[nodiscard]] std::uint64_t bytes_written() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_written_;
  }

  /// Durable records that failed validation on load (counted once each).
  [[nodiscard]] std::uint64_t corrupt_records() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return corrupt_records_;
  }

  /// Manifest loads healed by falling back to a valid ancestor record.
  [[nodiscard]] std::uint64_t fallback_records() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return fallback_records_;
  }

 private:
  /// Frame a payload as [u32 length][u64 fingerprint][payload].
  static Bytes frame(const Bytes& payload) {
    Bytes out(kHeaderBytes + payload.size());
    const auto len = static_cast<std::uint32_t>(payload.size());
    std::memcpy(out.data(), &len, sizeof len);
    const std::uint64_t fp = wire::checksum(payload);
    std::memcpy(out.data() + sizeof len, &fp, sizeof fp);
    if (!payload.empty())
      std::memcpy(out.data() + kHeaderBytes, payload.data(), payload.size());
    return out;
  }

  /// Validate a framed record in place; returns a pointer to a payload copy
  /// cache on success (stored per call — see below), nullptr on any
  /// malformation. To avoid returning dangling pointers the payload is
  /// materialized into `scratch_` under the caller-held lock.
  const Bytes* validate(const Bytes& framed) const {
    if (framed.size() < kHeaderBytes) return nullptr;
    std::uint32_t len = 0;
    std::memcpy(&len, framed.data(), sizeof len);
    if (framed.size() != kHeaderBytes + len) return nullptr;
    std::uint64_t fp = 0;
    std::memcpy(&fp, framed.data() + sizeof len, sizeof fp);
    scratch_.assign(framed.begin() + kHeaderBytes, framed.end());
    if (wire::checksum(scratch_) != fp) return nullptr;
    return &scratch_;
  }

  static constexpr std::size_t kHeaderBytes = sizeof(std::uint32_t) + sizeof(std::uint64_t);

  struct PerRank {
    Bytes current;
    Bytes ancestor;
    std::uint64_t writes = 0;
    mutable bool counted = false;           // corrupt `current` already counted
    mutable bool fallback_counted = false;  // ancestor fallback already counted
  };
  struct PerRankLog {
    std::vector<Bytes> records;
    std::uint64_t appends = 0;
    // Index of the invalid record already counted (one count per torn/
    // flipped record, however many times the log is re-read).
    mutable std::size_t counted_invalid = static_cast<std::size_t>(-1);
  };

  mutable std::mutex mutex_;
  mutable Bytes scratch_;
  std::vector<PerRank> manifests_;
  std::vector<PerRankLog> logs_;
  const FaultInjector* injector_ = nullptr;
  std::uint64_t bytes_written_ = 0;
  mutable std::uint64_t corrupt_records_ = 0;
  mutable std::uint64_t fallback_records_ = 0;
};

}  // namespace gnb::rt
