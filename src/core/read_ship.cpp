#include "core/read_ship.hpp"

#include <utility>

#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "seq/wire_codec.hpp"
#include "util/error.hpp"
#include "util/memory.hpp"
#include "util/wire.hpp"

namespace gnb::core {

namespace {

/// Run `body` inside a span named by `span_args` when `on`, bare otherwise.
template <typename Body, typename... Args>
void maybe_span(bool on, Body&& body, [[maybe_unused]] Args... span_args) {
  if (on) {
    GNB_SPAN(span_args...);
    body();
  } else {
    body();
  }
}

/// Payload bytes of a frame starting at `offset` (0 for an empty buffer).
std::uint64_t payload_bytes(std::span<const std::uint8_t> in, std::size_t offset = 0) {
  return in.size() > offset + wire::kChecksumBytes ? in.size() - offset - wire::kChecksumBytes
                                                   : 0;
}

/// Memory the decoded copy of `read` occupies while its consumer runs (the
/// wire payload alone undercounts it 4x under pack2).
std::uint64_t decoded_bytes(const seq::Read& read) {
  return sizeof(seq::Read) + read.sequence.footprint_bytes();
}

}  // namespace

ReadShip::ReadShip(rt::Rank& rank, EngineResult& result, proto::WireCompression mode)
    : rank_(rank), result_(result), mode_(mode), spans_(mode != proto::WireCompression::kOff) {}

void ReadShip::add(rt::Bytes& frame, const seq::Read& read) const {
  if (frame.empty()) wire::begin_checksum(frame);
  seq::encode_read(read, mode_, frame);
}

std::uint64_t ReadShip::seal(rt::Bytes& out, std::size_t start) {
  wire::seal_checksum(out, start);
  const std::uint64_t payload = payload_bytes(out, start);
  result_.exchange_bytes_sent += payload;
  return payload;
}

std::uint64_t ReadShip::serve(rt::Bytes& out, std::span<const seq::ReadId> ids,
                              const std::function<const seq::Read*(seq::ReadId)>& lookup) {
  const std::size_t start = out.size();
  wire::begin_checksum(out);
  const auto pack = [&] {
    for (const seq::ReadId id : ids)
      if (const seq::Read* read = lookup(id)) seq::encode_read(*read, mode_, out);
  };
  maybe_span(spans_, pack, obs::span::kWireCompress, "reads", ids.size());
  return seal(out, start);
}

void ReadShip::unpack(std::span<const std::uint8_t> in, std::size_t offset, std::uint32_t src,
                      const char* what, std::uint64_t id, const Consume& consume) {
  if (!wire::verify_checksum(in, offset)) {
    ++rank_.fault_counters().checksum_failures;
    GNB_CHECK_MSG(false, what << " " << id << ": corrupt payload from rank " << src);
  }
  const std::uint64_t payload = in.size() - offset;
  result_.exchange_bytes_received += payload;
  // The frame decodes as a unit (the decompress span the simulator
  // mirrors), then its reads are consumed in frame order.
  std::vector<seq::Read> decoded;
  const auto decode = [&] {
    while (offset < in.size()) decoded.push_back(seq::decode_read(in, offset));
  };
  maybe_span(spans_, decode, obs::span::kWireDecompress, "bytes", payload);
  for (seq::Read& read : decoded) {
    result_.wire_raw_bytes += seq::raw_read_bytes(read);
    const ScopedAllocation resident(rank_.memory(), decoded_bytes(read));
    consume(src, std::move(read));
  }
}

std::uint64_t ReadShip::receive(std::span<const std::uint8_t> in, std::size_t offset,
                                std::uint32_t src, const char* what, std::uint64_t id,
                                const Consume& consume) {
  const std::uint64_t payload = payload_bytes(in, offset);
  const ScopedAllocation held(rank_.memory(), payload);
  unpack(in, offset, src, what, id, consume);
  return payload;
}

void ReadShip::exchange(std::vector<rt::Bytes> frames, const char* what, std::uint64_t id,
                        const char* unpack_span, const Consume& consume) {
  std::uint64_t sent = 0;
  for (const rt::Bytes& frame : frames) sent += payload_bytes(frame);
  std::vector<rt::Bytes> received;
  {
    const ScopedAllocation held(rank_.memory(), sent);
    received = rank_.alltoallv(std::move(frames));
  }
  std::uint64_t arrived = 0;
  for (const rt::Bytes& frame : received) arrived += payload_bytes(frame);
  const ScopedAllocation held(rank_.memory(), arrived);
  const auto unpack_all = [&] {
    for (std::uint32_t src = 0; src < received.size(); ++src)
      if (!received[src].empty()) unpack(received[src], 0, src, what, id, consume);
  };
  maybe_span(unpack_span != nullptr, unpack_all, unpack_span);
}

BulkFetch::BulkFetch(ReadShip& ship, std::uint64_t budget, const char* what,
                     std::function<void()> before_collective)
    : ship_(ship),
      budget_(budget),
      what_(what),
      before_collective_(std::move(before_collective)),
      p_(ship.rank().nranks()),
      received_(p_, 0),
      reported_(p_, 0),
      queue_(p_),
      sizes_(p_),
      next_(p_, 0),
      serve_totals_(p_, 0) {}

void BulkFetch::request(std::vector<std::vector<seq::ReadId>> wanted,
                        const std::function<const seq::Read*(seq::ReadId)>& serve) {
  wanted_ = std::move(wanted);
  std::vector<rt::Bytes> requests(p_);
  for (std::size_t owner = 0; owner < p_; ++owner)
    for (const seq::ReadId id : wanted_[owner]) wire::put<std::uint32_t>(requests[owner], id);
  before_collective();
  const std::vector<rt::Bytes> asked = ship_.rank().alltoallv(std::move(requests));
  for (std::size_t src = 0; src < p_; ++src) {
    std::size_t offset = 0;
    while (offset < asked[src].size()) {
      const seq::Read* read = serve(wire::get<std::uint32_t>(asked[src], offset));
      if (read == nullptr) continue;
      queue_[src].push_back(read);
      sizes_[src].push_back(seq::encoded_read_bytes(*read, ship_.mode()));
    }
  }
  exchange_totals();
}

void BulkFetch::exchange_totals() {
  // Each requester learns how many bytes it will pull, so every rank can
  // evaluate the shared round formula on (pull + serve) — the exact
  // quantity the simulator budgets.
  serve_bytes_ = 0;
  for (std::size_t dst = 0; dst < p_; ++dst) {
    serve_totals_[dst] = 0;
    for (const std::uint64_t bytes : sizes_[dst]) serve_totals_[dst] += bytes;
    serve_bytes_ += serve_totals_[dst];
  }
  before_collective();
  pull_bytes_ = 0;
  for (const std::uint64_t bytes : ship_.rank().alltoall(serve_totals_)) pull_bytes_ += bytes;
}

void BulkFetch::plan() {
  before_collective();
  const auto nrounds = static_cast<std::uint64_t>(ship_.rank().allreduce_max(
      static_cast<double>(proto::rounds_needed(pull_bytes_ + serve_bytes_, budget_))));
  plan_ = proto::plan_rounds(sizes_, nrounds);
  round_ = 0;
}

void BulkFetch::replan(const std::vector<char>& alive) {
  for (std::size_t dst = 0; dst < p_; ++dst) {
    const auto sent = static_cast<std::ptrdiff_t>(alive[dst] ? next_[dst] : queue_[dst].size());
    queue_[dst].erase(queue_[dst].begin(), queue_[dst].begin() + sent);
    sizes_[dst].erase(sizes_[dst].begin(), sizes_[dst].begin() + sent);
    next_[dst] = 0;
  }
  exchange_totals();
  plan();
}

void BulkFetch::next_round(const char* unpack_span, const ReadShip::Consume& consume) {
  const proto::Round& step = plan_.rounds[round_];
  std::vector<rt::Bytes> frames(p_);
  std::uint64_t packed = 0;
  const auto pack = [&] {
    for (std::size_t dst = 0; dst < p_; ++dst) {
      if (step.per_dest[dst] == 0) continue;
      for (std::uint32_t i = 0; i < step.per_dest[dst]; ++i)
        ship_.add(frames[dst], *queue_[dst][next_[dst]++]);
      packed += ship_.seal(frames[dst]);
    }
  };
  maybe_span(ship_.mode() != proto::WireCompression::kOff, pack, obs::span::kWireCompress,
             "bytes", step.bytes);
  GNB_CHECK_MSG(packed == step.bytes, "executed round diverged from plan");
  const auto count = [&](std::uint32_t src, seq::Read&& read) {
    consume(src, std::move(read));
    ++received_[src];
  };
  before_collective();
  ship_.exchange(std::move(frames), what_, round_, unpack_span, count);
  ++round_;
}

std::vector<seq::ReadId> BulkFetch::missing(const std::vector<char>& alive) {
  std::vector<seq::ReadId> lost;
  for (std::size_t owner = 0; owner < p_; ++owner) {
    if (alive[owner] || reported_[owner] != 0) continue;
    reported_[owner] = 1;
    lost.insert(lost.end(),
                wanted_[owner].begin() + static_cast<std::ptrdiff_t>(received_[owner]),
                wanted_[owner].end());
  }
  return lost;
}

}  // namespace gnb::core
