#include "rt/fault.hpp"

#include <charconv>
#include <sstream>

#include "rt/durable.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace gnb::rt {

namespace {

// Event-kind tags keep the per-mode hash streams independent: a request and
// a reply with the same (src, dst, seq) must not share a fate.
constexpr std::uint64_t kTagRequest = 0x5245515545535421ULL;
constexpr std::uint64_t kTagReply = 0x5245504C59212121ULL;
constexpr std::uint64_t kTagReorder = 0x52454F5244455221ULL;
constexpr std::uint64_t kTagStraggle = 0x5354524147474C45ULL;
constexpr std::uint64_t kTagCorrupt = 0x434F525255505421ULL;

/// One 64-bit hash of the event identity: SplitMix64 over a running state.
std::uint64_t mix(std::uint64_t seed, std::uint64_t tag, std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = seed;
  state ^= splitmix64(state) ^ tag;
  state ^= splitmix64(state) ^ a;
  state ^= splitmix64(state) ^ b;
  return splitmix64(state);
}

/// Uniform [0, 1) from a hash (same transform Xoshiro256::uniform uses).
double u01(std::uint64_t hash) { return static_cast<double>(hash >> 11) * 0x1.0p-53; }

FaultInjector::Delivery decide(const FaultPlan& plan, std::uint64_t tag, std::uint32_t src,
                               std::uint32_t dst, std::uint64_t seq) {
  FaultInjector::Delivery decision;
  const std::uint64_t pair = (static_cast<std::uint64_t>(src) << 32) | dst;
  const std::uint64_t h_delay = mix(plan.seed, tag, pair, seq * 3);
  const std::uint64_t h_ticks = mix(plan.seed, tag, pair, seq * 3 + 1);
  const std::uint64_t h_dup = mix(plan.seed, tag, pair, seq * 3 + 2);
  if (plan.delay_prob > 0 && plan.max_delay_ticks > 0 && u01(h_delay) < plan.delay_prob)
    decision.delay_ticks = 1 + static_cast<std::uint32_t>(h_ticks % plan.max_delay_ticks);
  decision.duplicate = plan.dup_prob > 0 && u01(h_dup) < plan.dup_prob;
  return decision;
}

double parse_double(const std::string& text) {
  std::size_t used = 0;
  double value = 0;
  try {
    value = std::stod(text, &used);
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  GNB_THROW_IF(used != text.size(), "faults: bad number '" << text << "'");
  return value;
}

std::uint64_t parse_u64(const std::string& text) {
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  GNB_THROW_IF(ec != std::errc{} || ptr != text.data() + text.size(),
               "faults: bad integer '" << text << "'");
  return value;
}

/// Split "prob" or "prob:magnitude" into its two halves.
void parse_prob_mag(const std::string& text, double& prob, std::uint32_t& magnitude,
                    std::uint32_t default_magnitude) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) {
    prob = parse_double(text);
    magnitude = default_magnitude;
  } else {
    prob = parse_double(text.substr(0, colon));
    magnitude = static_cast<std::uint32_t>(parse_u64(text.substr(colon + 1)));
  }
  GNB_THROW_IF(prob < 0 || prob > 1, "faults: probability out of [0,1]: " << text);
}

}  // namespace

FaultPlan FaultPlan::from_seed(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  Xoshiro256 rng(seed ^ 0xFA417EC7ED5EEDULL);
  plan.delay_prob = 0.10 + 0.25 * rng.uniform();
  plan.max_delay_ticks = 2 + static_cast<std::uint32_t>(rng.below(14));
  plan.dup_prob = 0.05 + 0.15 * rng.uniform();
  plan.reorder_prob = 0.10 + 0.25 * rng.uniform();
  plan.straggle_prob = 0.05 + 0.10 * rng.uniform();
  plan.max_straggle_us = 50 + static_cast<std::uint32_t>(rng.below(250));
  return plan;
}

namespace {

/// Split an event body on ':' into exactly `want` integer parts, throwing
/// with the spec position of the offending character on any malformation.
std::vector<std::uint64_t> parse_event_parts(const std::string& field, std::size_t at,
                                             const char* shape, std::size_t body_offset,
                                             std::size_t want, std::size_t optional_tail = 0) {
  const std::string body = field.substr(body_offset);
  std::vector<std::uint64_t> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = body.find(':', start);
    const std::string piece =
        colon == std::string::npos ? body.substr(start) : body.substr(start, colon - start);
    GNB_THROW_IF(piece.empty(), "faults: expected " << shape << ", got '" << field
                                                    << "' at position "
                                                    << (at + body_offset + start));
    std::uint64_t value = 0;
    const auto [ptr, ec] = std::from_chars(piece.data(), piece.data() + piece.size(), value);
    GNB_THROW_IF(ec != std::errc{} || ptr != piece.data() + piece.size(),
                 "faults: bad integer '" << piece << "' at position "
                                         << (at + body_offset + start));
    parts.push_back(value);
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  GNB_THROW_IF(parts.size() < want || parts.size() > want + optional_tail,
               "faults: expected " << shape << ", got '" << field << "' at position " << at);
  return parts;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  GNB_THROW_IF(spec.empty(), "faults: empty spec");
  // A bare integer is shorthand for the canonical seed-derived mix.
  if (spec.find_first_not_of("0123456789") == std::string::npos)
    return from_seed(parse_u64(spec));

  FaultPlan plan;
  // Manual comma splitting so every diagnostic can carry the 0-based spec
  // position of the field it rejects.
  std::size_t at = 0;
  while (at <= spec.size()) {
    std::size_t comma = spec.find(',', at);
    if (comma == std::string::npos) comma = spec.size();
    const std::string field = spec.substr(at, comma - at);
    GNB_THROW_IF(field.empty(),
                 "faults: empty field in spec '" << spec << "' at position " << at);
    // Scheduled events use @ rather than =: they are facts, not
    // probabilistic intensities.
    if (field.rfind("crash@", 0) == 0) {
      const auto parts = parse_event_parts(field, at, "crash@RANK:STEP", 6, 2);
      CrashEvent crash{static_cast<std::uint32_t>(parts[0]), parts[1]};
      for (const CrashEvent& existing : plan.crashes)
        GNB_THROW_IF(existing.rank == crash.rank, "faults: duplicate crash for rank "
                                                      << crash.rank << " at position " << at);
      plan.crashes.push_back(crash);
    } else if (field.rfind("partition@", 0) == 0) {
      // partition@A|B:TICK[:DURATION] — the rank pair is '|'-separated so
      // the ':' positions stay uniform across event kinds.
      const std::size_t bar = field.find('|');
      GNB_THROW_IF(bar == std::string::npos || bar <= 10,
                   "faults: expected partition@A|B:TICK[:DURATION], got '"
                       << field << "' at position " << at);
      const std::string a_text = field.substr(10, bar - 10);
      std::uint32_t a = 0;
      {
        std::uint64_t value = 0;
        const auto [ptr, ec] =
            std::from_chars(a_text.data(), a_text.data() + a_text.size(), value);
        GNB_THROW_IF(ec != std::errc{} || ptr != a_text.data() + a_text.size(),
                     "faults: bad integer '" << a_text << "' at position " << (at + 10));
        a = static_cast<std::uint32_t>(value);
      }
      const auto parts = parse_event_parts(field, at, "partition@A|B:TICK[:DURATION]",
                                           bar + 1, 2, /*optional_tail=*/1);
      PartitionEvent cut;
      cut.a = a;
      cut.b = static_cast<std::uint32_t>(parts[0]);
      cut.at_tick = parts[1];
      cut.duration = parts.size() > 2 ? parts[2] : kDefaultPartitionTicks;
      GNB_THROW_IF(cut.a == cut.b,
                   "faults: partition endpoints must differ at position " << at);
      GNB_THROW_IF(cut.duration == 0,
                   "faults: partition duration must be nonzero at position " << at);
      plan.partitions.push_back(cut);
    } else if (field.rfind("restart@", 0) == 0) {
      const auto parts = parse_event_parts(field, at, "restart@RANK:SKIP", 8, 2);
      RestartEvent event{static_cast<std::uint32_t>(parts[0]), parts[1]};
      for (const RestartEvent& existing : plan.restarts)
        GNB_THROW_IF(existing.rank == event.rank, "faults: duplicate restart for rank "
                                                      << event.rank << " at position " << at);
      plan.restarts.push_back(event);
    } else if (field.rfind("corrupt@", 0) == 0) {
      const auto parts = parse_event_parts(field, at, "corrupt@RANK:KIND:SEQ", 8, 3);
      CorruptEvent event{static_cast<std::uint32_t>(parts[0]),
                         static_cast<std::uint32_t>(parts[1]), parts[2]};
      // Only kinds with a consumer: rt::DurableStore's 1 (manifest) and 2
      // (log record).
      GNB_THROW_IF(event.kind < DurableStore::kKindManifest ||
                       event.kind > DurableStore::kKindLogRecord,
                   "faults: corrupt kind must be 1..2, got " << event.kind << " at position "
                                                             << (at + field.find(':') + 1));
      plan.corrupts.push_back(event);
    } else {
      const std::size_t eq = field.find('=');
      GNB_THROW_IF(eq == std::string::npos,
                   "faults: expected key=value or an @event, got '" << field
                                                                    << "' at position " << at);
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      GNB_THROW_IF(key.empty(), "faults: missing key in '" << field << "' at position " << at);
      GNB_THROW_IF(value.empty(),
                   "faults: missing value in '" << field << "' at position " << (at + eq + 1));
      if (key == "seed") {
        plan.seed = parse_u64(value);
      } else if (key == "delay") {
        parse_prob_mag(value, plan.delay_prob, plan.max_delay_ticks, /*default=*/8);
      } else if (key == "dup") {
        plan.dup_prob = parse_double(value);
        GNB_THROW_IF(plan.dup_prob < 0 || plan.dup_prob > 1, "faults: dup out of [0,1]");
      } else if (key == "reorder") {
        plan.reorder_prob = parse_double(value);
        GNB_THROW_IF(plan.reorder_prob < 0 || plan.reorder_prob > 1,
                     "faults: reorder out of [0,1]");
      } else if (key == "straggle") {
        parse_prob_mag(value, plan.straggle_prob, plan.max_straggle_us, /*default=*/200);
      } else {
        GNB_THROW_IF(true, "faults: unknown key '" << key << "' at position " << at);
      }
    }
    if (comma == spec.size()) break;
    at = comma + 1;
  }
  return plan;
}

std::string FaultPlan::to_spec() const {
  std::ostringstream out;
  out << "seed=" << seed << ",delay=" << delay_prob << ':' << max_delay_ticks
      << ",dup=" << dup_prob << ",reorder=" << reorder_prob << ",straggle=" << straggle_prob
      << ':' << max_straggle_us;
  for (const CrashEvent& crash : crashes) out << ",crash@" << crash.rank << ':' << crash.at_step;
  // Partition duration is always printed so parse(to_spec()) round-trips
  // even when the original spec relied on the default window.
  for (const PartitionEvent& cut : partitions)
    out << ",partition@" << cut.a << '|' << cut.b << ':' << cut.at_tick << ':' << cut.duration;
  for (const RestartEvent& event : restarts)
    out << ",restart@" << event.rank << ':' << event.skip_gates;
  for (const CorruptEvent& event : corrupts)
    out << ",corrupt@" << event.rank << ':' << event.kind << ':' << event.seq;
  return out.str();
}

FaultInjector::Delivery FaultInjector::on_request(std::uint32_t src, std::uint32_t dst,
                                                  std::uint64_t seq) const {
  return decide(plan_, kTagRequest, src, dst, seq);
}

FaultInjector::Delivery FaultInjector::on_reply(std::uint32_t src, std::uint32_t dst,
                                                std::uint64_t seq) const {
  return decide(plan_, kTagReply, src, dst, seq);
}

bool FaultInjector::reorder_replies(std::uint32_t rank, std::uint64_t epoch) const {
  if (plan_.reorder_prob <= 0) return false;
  return u01(mix(plan_.seed, kTagReorder, rank, epoch)) < plan_.reorder_prob;
}

std::optional<std::uint64_t> FaultInjector::crash_step(std::uint32_t rank) const {
  std::optional<std::uint64_t> earliest;
  for (const CrashEvent& crash : plan_.crashes)
    if (crash.rank == rank && (!earliest || crash.at_step < *earliest))
      earliest = crash.at_step;
  return earliest;
}

void FaultInjector::corrupt_payload(std::uint32_t rank, std::uint32_t kind, std::uint64_t seq,
                                    std::vector<std::uint8_t>& payload) const {
  const std::uint64_t pair = (static_cast<std::uint64_t>(rank) << 32) | kind;
  const std::uint64_t h = mix(plan_.seed, kTagCorrupt, pair, seq);
  if (payload.empty()) return;
  if ((h & 1) != 0 && payload.size() > 1) {
    // Torn write: drop a hashed-size tail, at least one byte, never all.
    const std::size_t keep = 1 + static_cast<std::size_t>((h >> 1) % (payload.size() - 1));
    payload.resize(keep);
  } else {
    // Bit flip at a hashed offset.
    const std::size_t byte = static_cast<std::size_t>((h >> 8) % payload.size());
    payload[byte] ^= static_cast<std::uint8_t>(1u << ((h >> 3) & 7u));
  }
}

std::uint32_t FaultInjector::straggle_us(std::uint32_t rank, std::uint64_t entry) const {
  if (plan_.straggle_prob <= 0 || plan_.max_straggle_us == 0) return 0;
  const std::uint64_t h = mix(plan_.seed, kTagStraggle, rank, entry);
  if (u01(h) >= plan_.straggle_prob) return 0;
  return 1 + static_cast<std::uint32_t>(mix(plan_.seed, kTagStraggle ^ h, rank, entry) %
                                        plan_.max_straggle_us);
}

}  // namespace gnb::rt
