#pragma once
// core::ReadShip / core::BulkFetch — the one path a read takes between ranks.
//
// The BSP exchange, the async pull replies and recovery's re-fetch all move
// reads the same way (DESIGN.md §15): the serving rank codec-encodes them
// (seq/wire_codec) into one checksummed frame per destination
// (util/wire.hpp); the receiver verifies the frame, decodes it, and hands
// each read to whatever needs it. This module owns every step of that path
// and all of its accounting, so the consumers cannot drift apart:
//
//   * serve side: frames, sent payload bytes (counted when a frame is
//     sealed), and the wire.compress span — one per BSP round, one per
//     async reply;
//   * receive side: checksum verification (fault counter, then abort on
//     corruption), decode under the overhead timer and one wire.decompress
//     span per non-empty frame, received and raw byte counters, and memory
//     charged while payload and decoded reads are resident — released by
//     the same code that charged it;
//   * BulkFetch: the round-planned many-to-many fetch. Request lists go to
//     the owners, who queue the reads FIFO with exact codec sizes; every
//     rank agrees on proto::rounds_needed over (pull + serve) bytes and
//     ships proto::plan_rounds' schedule one alltoallv per round. The BSP
//     exchange and recovery's re-fetch are both instances.
//
// The wire.* spans are emitted iff the codec is not `off` — the gate the
// simulator mirrors. Byte counters count read payload only, never the
// checksum header or a caller prefix (see EngineResult).

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/engine.hpp"
#include "proto/config.hpp"
#include "proto/round_planner.hpp"
#include "rt/world.hpp"

namespace gnb::core {

class ReadShip {
 public:
  /// Receives each decoded read with the rank it came from. The read is
  /// the decoder's own copy: a consumer may move it away.
  using Consume = std::function<void(std::uint32_t src, seq::Read&& read)>;

  ReadShip(rt::Rank& rank, EngineResult& result, proto::WireCompression mode);
  // RPC handlers and fetch rounds hold its address.
  ReadShip(const ReadShip&) = delete;
  ReadShip& operator=(const ReadShip&) = delete;

  [[nodiscard]] proto::WireCompression mode() const { return mode_; }
  [[nodiscard]] rt::Rank& rank() { return rank_; }

  // --- serve side ---

  /// Append `read` to the frame held in `frame`, opening the frame first
  /// when `frame` is empty.
  void add(rt::Bytes& frame, const seq::Read& read) const;

  /// Close the frame that starts at `start`: fill in its checksum and count
  /// its payload as sent. Returns the payload bytes.
  std::uint64_t seal(rt::Bytes& out, std::size_t start = 0);

  /// One async reply: append a frame after whatever `out` already holds
  /// (the caller's prefix), with every read `lookup` resolves for `ids`, in
  /// order (nullptr omits a read), under one wire.compress span. Returns
  /// the payload bytes.
  std::uint64_t serve(rt::Bytes& out, std::span<const seq::ReadId> ids,
                      const std::function<const seq::Read*(seq::ReadId)>& lookup);

  // --- receive side ---

  /// Verify, decode and consume the frame at `in[offset..]` that arrived
  /// from `src`; its payload stays charged to the memory meter until every
  /// read is consumed. `what` and `id` name the frame in the abort message
  /// on corruption. Returns the payload bytes.
  std::uint64_t receive(std::span<const std::uint8_t> in, std::size_t offset, std::uint32_t src,
                        const char* what, std::uint64_t id, const Consume& consume);

  /// Ship sealed frames (frames[dst]; empty = nothing for dst) over one
  /// alltoallv, then verify, decode and consume what arrived in source
  /// order — under `unpack_span` when it is not null. Sent and received
  /// payload are charged to the memory meter while in flight.
  void exchange(std::vector<rt::Bytes> frames, const char* what, std::uint64_t id,
                const char* unpack_span, const Consume& consume);

 private:
  void unpack(std::span<const std::uint8_t> in, std::size_t offset, std::uint32_t src,
              const char* what, std::uint64_t id, const Consume& consume);

  rt::Rank& rank_;
  EngineResult& result_;
  const proto::WireCompression mode_;
  const bool spans_;  // wire.* spans: codec is not `off`
};

class BulkFetch {
 public:
  /// `what` names the rounds in abort messages. `before_collective` runs
  /// before every collective the fetch enters (BSP flushes its recovery log
  /// there).
  BulkFetch(ReadShip& ship, std::uint64_t budget, const char* what,
            std::function<void()> before_collective = {});

  /// Send wanted[o] (read ids, FIFO) to each owner o; queue, in request
  /// order, the reads others want from this rank — `serve` resolves each,
  /// nullptr drops a read this rank no longer owns (the requester retries);
  /// then exchange per-peer byte totals.
  void request(std::vector<std::vector<seq::ReadId>> wanted,
               const std::function<const seq::Read*(seq::ReadId)>& serve);

  /// Agree on the round count (max over ranks of rounds_needed(pull +
  /// serve, budget)) and plan this rank's rounds.
  void plan();

  /// After a membership change: drop what was already sent and everything
  /// owed to ranks dead in `alive`, re-exchange totals and plan again.
  void replan(const std::vector<char>& alive);

  [[nodiscard]] bool done() const { return round_ >= plan_.rounds.size(); }
  [[nodiscard]] std::uint64_t round() const { return round_; }
  [[nodiscard]] const proto::Round& step() const { return plan_.rounds[round_]; }

  /// Pack the next round under one wire.compress span, exchange it, and
  /// consume what arrives (see ReadShip::exchange).
  void next_round(const char* unpack_span, const ReadShip::Consume& consume);

  /// Reads wanted from owners dead in `alive` that never arrived: each
  /// owner's FIFO suffix past the reads received from it. Reads arrive in
  /// wanted order (queues are FIFO and plan_rounds packs FIFO prefixes), so
  /// the suffix is exact. Each dead owner is reported once.
  std::vector<seq::ReadId> missing(const std::vector<char>& alive);

 private:
  void exchange_totals();
  void before_collective() const {
    if (before_collective_) before_collective_();
  }

  ReadShip& ship_;
  const std::uint64_t budget_;
  const char* what_;
  std::function<void()> before_collective_;
  std::size_t p_;

  std::vector<std::vector<seq::ReadId>> wanted_;      // per owner, FIFO
  std::vector<std::size_t> received_;                 // per owner, reads arrived
  std::vector<char> reported_;                        // per owner, missing() done
  std::vector<std::vector<const seq::Read*>> queue_;  // per destination, FIFO
  std::vector<std::vector<std::uint64_t>> sizes_;     // encoded size of each queued read
  std::vector<std::size_t> next_;                     // per destination, reads sent
  std::vector<std::uint64_t> serve_totals_;
  std::uint64_t serve_bytes_ = 0;
  std::uint64_t pull_bytes_ = 0;
  proto::RoundPlan plan_;
  std::uint64_t round_ = 0;
};

}  // namespace gnb::core
