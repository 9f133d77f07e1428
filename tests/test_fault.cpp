// Chaos suite for the seeded fault-injection layer (rt/fault) and the
// engine hardening it exercises: under delayed, duplicated, and reordered
// delivery plus stragglers, both engines must terminate and produce an
// alignment set byte-identical to the fault-free run — the fault layer may
// change *when* things happen, never *what* is computed. Every schedule is
// replayable from a single uint64 seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <tuple>
#include <vector>

#include "core/async.hpp"
#include "core/bsp.hpp"
#include "pipeline/pipeline.hpp"
#include "rt/fault.hpp"
#include "rt/world.hpp"
#include "stat/breakdown.hpp"
#include "util/error.hpp"
#include "util/wire.hpp"
#include "wl/presets.hpp"

using namespace gnb;

namespace {

/// One synthesized workload, partitioned for a given rank count.
struct Workload {
  wl::SampledDataset dataset;
  pipeline::TaskSet tasks;
};

// ThreadSanitizer slows the alignment compute inside each chaos run by well
// over an order of magnitude; shrink the genome there so the whole matrix
// stays runnable in CI. Native builds keep the full-size workload.
#if defined(__SANITIZE_THREAD__)
#define GNB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define GNB_TSAN_BUILD 1
#endif
#endif

Workload make_workload(std::size_t ranks, std::uint64_t seed = 33) {
  Workload w;
  wl::DatasetSpec spec = wl::ecoli30x_spec();
#ifdef GNB_TSAN_BUILD
  spec.genome.length = 2'000;
#else
  spec.genome.length = 10'000;  // small enough for a seeds x ranks matrix
#endif
  w.dataset = wl::synthesize(spec, seed);
  pipeline::PipelineConfig config;
  config.k = spec.k;
  config.lo = 2;
  config.hi = 8;
  w.tasks = pipeline::run_serial(w.dataset.reads, config, ranks);
  return w;
}

struct RunOutcome {
  std::vector<align::AlignmentRecord> records;  // sorted, all ranks merged
  std::uint64_t exchange_bytes = 0;
  stat::FaultCounters faults;  // summed over ranks
};

/// Run one engine over the workload, optionally under a fault plan, and
/// collapse the per-rank results into a comparable outcome.
RunOutcome run_engine(bool async_mode, std::size_t ranks, const Workload& w,
                      const core::EngineConfig& config, const rt::FaultPlan& plan = {}) {
  rt::World world(ranks);
  if (plan.enabled()) world.set_faults(plan);
  std::vector<core::EngineResult> results(ranks);
  world.run([&](rt::Rank& rank) {
    results[rank.id()] =
        async_mode ? core::async_align(rank, w.dataset.reads, w.tasks.bounds,
                                       w.tasks.per_rank[rank.id()], config)
                   : core::bsp_align(rank, w.dataset.reads, w.tasks.bounds,
                                     w.tasks.per_rank[rank.id()], config);
  });
  RunOutcome outcome;
  for (const auto& result : results) {
    outcome.exchange_bytes += result.exchange_bytes_received;
    outcome.records.insert(outcome.records.end(), result.accepted.begin(),
                           result.accepted.end());
  }
  for (const stat::Breakdown& b : world.breakdowns()) outcome.faults.merge(b.faults);
  std::sort(outcome.records.begin(), outcome.records.end(),
            [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
              return std::tie(x.read_a, x.read_b, x.alignment.score) <
                     std::tie(y.read_a, y.read_b, y.alignment.score);
            });
  return outcome;
}

/// Full-field equality: chaos must not perturb a single alignment value.
/// `compare_exchange` is off for crash-bearing plans — re-executed work
/// runs locally on the adopter, so wire traffic legitimately shrinks.
void expect_identical(const RunOutcome& chaos, const RunOutcome& clean,
                      bool compare_exchange = true) {
  if (compare_exchange) {
    EXPECT_EQ(chaos.exchange_bytes, clean.exchange_bytes);
  }
  ASSERT_EQ(chaos.records.size(), clean.records.size());
  for (std::size_t i = 0; i < clean.records.size(); ++i) {
    const align::AlignmentRecord& a = chaos.records[i];
    const align::AlignmentRecord& b = clean.records[i];
    ASSERT_EQ(a.read_a, b.read_a) << "record " << i;
    ASSERT_EQ(a.read_b, b.read_b) << "record " << i;
    EXPECT_EQ(a.alignment.score, b.alignment.score) << "record " << i;
    EXPECT_EQ(a.alignment.a_begin, b.alignment.a_begin) << "record " << i;
    EXPECT_EQ(a.alignment.a_end, b.alignment.a_end) << "record " << i;
    EXPECT_EQ(a.alignment.b_begin, b.alignment.b_begin) << "record " << i;
    EXPECT_EQ(a.alignment.b_end, b.alignment.b_end) << "record " << i;
    EXPECT_EQ(a.alignment.b_reversed, b.alignment.b_reversed) << "record " << i;
    EXPECT_EQ(a.alignment.cells, b.alignment.cells) << "record " << i;
  }
}

}  // namespace

// --- plan parsing and seeding ---

TEST(FaultPlan, DefaultDisabled) {
  const rt::FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
}

TEST(FaultPlan, FromSeedIsDeterministicAndEnabled) {
  const rt::FaultPlan a = rt::FaultPlan::from_seed(42);
  const rt::FaultPlan b = rt::FaultPlan::from_seed(42);
  EXPECT_TRUE(a.enabled());
  EXPECT_EQ(a.to_spec(), b.to_spec());
  // Different seeds explore different intensities (jittered mix).
  const rt::FaultPlan c = rt::FaultPlan::from_seed(43);
  EXPECT_NE(a.to_spec(), c.to_spec());
}

TEST(FaultPlan, ParseBareSeedMatchesFromSeed) {
  EXPECT_EQ(rt::FaultPlan::parse("42").to_spec(), rt::FaultPlan::from_seed(42).to_spec());
}

TEST(FaultPlan, ParseKeyValueRoundTrips) {
  const std::string spec = "seed=7,delay=0.25:8,dup=0.05,reorder=0.1,straggle=0.02:500";
  const rt::FaultPlan plan = rt::FaultPlan::parse(spec);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.delay_prob, 0.25);
  EXPECT_EQ(plan.max_delay_ticks, 8u);
  EXPECT_DOUBLE_EQ(plan.dup_prob, 0.05);
  EXPECT_DOUBLE_EQ(plan.reorder_prob, 0.1);
  EXPECT_DOUBLE_EQ(plan.straggle_prob, 0.02);
  EXPECT_EQ(plan.max_straggle_us, 500u);
  // to_spec() renders a spec that parses back to the same plan.
  EXPECT_EQ(rt::FaultPlan::parse(plan.to_spec()).to_spec(), plan.to_spec());
}

TEST(FaultPlan, ParseRejectsMalformedSpecs) {
  const auto parse = [](const std::string& spec) { (void)rt::FaultPlan::parse(spec); };
  EXPECT_THROW(parse(""), gnb::Error);
  EXPECT_THROW(parse("delay=nope"), gnb::Error);
  EXPECT_THROW(parse("unknown=1"), gnb::Error);
  EXPECT_THROW(parse("delay=0.5:x"), gnb::Error);  // bad magnitude
  EXPECT_THROW(parse("dup=1.5"), gnb::Error);      // out of [0,1]
  // A bare probability takes the documented default magnitude.
  EXPECT_EQ(rt::FaultPlan::parse("delay=0.5").max_delay_ticks, 8u);
}

TEST(FaultPlan, ParseCrashEventsRoundTrip) {
  const rt::FaultPlan plan = rt::FaultPlan::parse("seed=9,crash@1:3,crash@4:0");
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0].rank, 1u);
  EXPECT_EQ(plan.crashes[0].at_step, 3u);
  EXPECT_EQ(plan.crashes[1].rank, 4u);
  EXPECT_EQ(plan.crashes[1].at_step, 0u);
  EXPECT_TRUE(plan.enabled());  // a crash-only plan is an enabled plan
  EXPECT_EQ(rt::FaultPlan::parse(plan.to_spec()).to_spec(), plan.to_spec());
}

TEST(FaultPlan, ParseRejectsMalformedCrashSpecs) {
  const auto parse = [](const std::string& spec) { (void)rt::FaultPlan::parse(spec); };
  EXPECT_THROW(parse("crash@"), gnb::Error);         // no rank:step
  EXPECT_THROW(parse("crash@1"), gnb::Error);        // no step
  EXPECT_THROW(parse("crash@:3"), gnb::Error);       // no rank
  EXPECT_THROW(parse("crash@x:3"), gnb::Error);      // non-numeric rank
  EXPECT_THROW(parse("crash@1:y"), gnb::Error);      // non-numeric step
  EXPECT_THROW(parse("crash=1:2"), gnb::Error);      // wrong separator
  EXPECT_THROW(parse("crash@1:2,crash@1:5"), gnb::Error);  // duplicate rank
}

TEST(FaultPlan, ParsePartitionRestartCorruptRoundTrip) {
  const rt::FaultPlan plan =
      rt::FaultPlan::parse("seed=9,partition@0|2:100:500,restart@1:2,corrupt@3:2:1");
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.partitions[0].a, 0u);
  EXPECT_EQ(plan.partitions[0].b, 2u);
  EXPECT_EQ(plan.partitions[0].at_tick, 100u);
  EXPECT_EQ(plan.partitions[0].duration, 500u);
  ASSERT_EQ(plan.restarts.size(), 1u);
  EXPECT_EQ(plan.restarts[0].rank, 1u);
  EXPECT_EQ(plan.restarts[0].skip_gates, 2u);
  ASSERT_EQ(plan.corrupts.size(), 1u);
  EXPECT_EQ(plan.corrupts[0].rank, 3u);
  EXPECT_EQ(plan.corrupts[0].kind, 2u);
  EXPECT_EQ(plan.corrupts[0].seq, 1u);
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(rt::FaultPlan::parse(plan.to_spec()).to_spec(), plan.to_spec());
}

TEST(FaultPlan, PartitionDurationDefaultsWhenOmitted) {
  const rt::FaultPlan plan = rt::FaultPlan::parse("partition@1|3:64");
  ASSERT_EQ(plan.partitions.size(), 1u);
  EXPECT_EQ(plan.partitions[0].duration, rt::FaultPlan::kDefaultPartitionTicks);
  EXPECT_EQ(rt::FaultPlan::parse(plan.to_spec()).to_spec(), plan.to_spec());
}

TEST(FaultPlan, RoundTripFuzzAcrossAllEventKinds) {
  // Deterministic sweep over programmatically built plans mixing every
  // event kind: parse(to_spec()) must reproduce the spec byte for byte.
  for (std::uint64_t trial = 0; trial < 64; ++trial) {
    rt::FaultPlan plan;
    plan.seed = trial * 7919 + 1;
    if (trial % 2) {
      plan.delay_prob = 0.125 * static_cast<double>(trial % 8);
      plan.max_delay_ticks = trial % 16 + 1;
    }
    if (trial % 5 == 0) plan.dup_prob = 0.25;
    if (trial % 3) plan.crashes.push_back(
        {static_cast<std::uint32_t>(trial % 5), trial % 11});
    if (trial % 3 == 0)
      plan.partitions.push_back({static_cast<std::uint32_t>(trial % 4),
                                 static_cast<std::uint32_t>(trial % 4 + 1),
                                 trial * 13 % 997, trial % 7 + 1});
    if (trial % 4 != 1)
      plan.restarts.push_back({static_cast<std::uint32_t>(trial % 6), trial % 4});
    plan.corrupts.push_back({static_cast<std::uint32_t>(trial % 3),
                             static_cast<std::uint32_t>(trial % 2 + 1), trial % 9});
    const std::string spec = plan.to_spec();
    SCOPED_TRACE(spec);
    const rt::FaultPlan reparsed = rt::FaultPlan::parse(spec);
    EXPECT_EQ(reparsed.to_spec(), spec);
  }
}

TEST(FaultPlan, MalformedSelfHealingSpecsRejectedWithPosition) {
  // Every rejection names the offending position in the spec string.
  const auto error_text = [](const std::string& spec) -> std::string {
    try {
      (void)rt::FaultPlan::parse(spec);
    } catch (const gnb::Error& e) {
      return e.what();
    }
    ADD_FAILURE() << "spec '" << spec << "' unexpectedly parsed";
    return {};
  };
  for (const char* spec :
       {"partition@", "partition@0:100", "partition@0|0:5", "partition@0|1:5:0",
        "partition@x|1:5", "partition@0|1:y", "restart@", "restart@1",
        "restart@1:z", "corrupt@1", "corrupt@1:2", "corrupt@1:0:0", "corrupt@1:3:0",
        "corrupt@1:6:0", "corrupt@a:1:0", "seed=1,partition@0|1"}) {
    SCOPED_TRACE(spec);
    EXPECT_NE(error_text(spec).find("at position"), std::string::npos);
  }
  // A corrupt kind nothing consumes points at the kind itself. Only
  // rt::DurableStore's manifest (1) and log record (2) kinds exist.
  EXPECT_NE(error_text("seed=1,corrupt@1:9:0").find("at position 17"), std::string::npos);
  EXPECT_NE(error_text("seed=1,corrupt@1:3:0")
                .find("corrupt kind must be 1..2, got 3 at position 17"),
            std::string::npos);
}

TEST(FaultPlan, CrashNamingOutOfRangeRankIsRejectedAtInstall) {
  rt::World world(2);
  EXPECT_THROW(world.set_faults(rt::FaultPlan::parse("crash@2:0")), gnb::Error);
  EXPECT_THROW(world.set_faults(rt::FaultPlan::parse("crash@7:1")), gnb::Error);
  world.set_faults(rt::FaultPlan::parse("crash@1:0"));  // in range: fine
  EXPECT_NE(world.faults(), nullptr);
}

TEST(FaultInjector, CrashStepIsEarliestEventForTheRank) {
  rt::FaultPlan plan;
  plan.crashes = {{3, 9}};
  const rt::FaultInjector injector(plan);
  EXPECT_FALSE(injector.crash_step(0).has_value());
  ASSERT_TRUE(injector.crash_step(3).has_value());
  EXPECT_EQ(*injector.crash_step(3), 9u);
  EXPECT_FALSE(injector.crashes_at(3, 8));
  EXPECT_TRUE(injector.crashes_at(3, 9));
  // A rank cannot outrun its death by skipping event kinds.
  EXPECT_TRUE(injector.crashes_at(3, 100));
}

// --- injector determinism ---

TEST(FaultInjector, ScheduleIsAPureFunctionOfSeedAndIdentity) {
  const rt::FaultPlan plan = rt::FaultPlan::from_seed(99);
  const rt::FaultInjector a(plan);
  const rt::FaultInjector b(plan);
  for (std::uint32_t src = 0; src < 4; ++src)
    for (std::uint32_t dst = 0; dst < 4; ++dst)
      for (std::uint64_t seq = 0; seq < 64; ++seq) {
        const auto da = a.on_request(src, dst, seq);
        const auto db = b.on_request(src, dst, seq);
        EXPECT_EQ(da.delay_ticks, db.delay_ticks);
        EXPECT_EQ(da.duplicate, db.duplicate);
        const auto ra = a.on_reply(src, dst, seq);
        const auto rb = b.on_reply(src, dst, seq);
        EXPECT_EQ(ra.delay_ticks, rb.delay_ticks);
        EXPECT_EQ(ra.duplicate, rb.duplicate);
        EXPECT_EQ(a.reorder_replies(src, seq), b.reorder_replies(src, seq));
        EXPECT_EQ(a.straggle_us(src, seq), b.straggle_us(src, seq));
      }
}

TEST(FaultInjector, IntensitiesGateTheDecisions) {
  rt::FaultPlan always;
  always.seed = 5;
  always.delay_prob = 1.0;
  always.max_delay_ticks = 6;
  always.dup_prob = 1.0;
  const rt::FaultInjector on(always);
  rt::FaultPlan never;
  never.seed = 5;
  never.dup_prob = 1.0;  // enabled, but no delay/straggle
  const rt::FaultInjector off(never);
  for (std::uint64_t seq = 0; seq < 128; ++seq) {
    const auto d = on.on_request(0, 1, seq);
    EXPECT_GE(d.delay_ticks, 1u);
    EXPECT_LE(d.delay_ticks, 6u);
    EXPECT_TRUE(d.duplicate);
    EXPECT_EQ(off.on_request(0, 1, seq).delay_ticks, 0u);
    EXPECT_EQ(off.straggle_us(0, seq), 0u);
  }
}

// --- wire checksums (the BSP per-round verification primitive) ---

TEST(WireChecksum, SealAndVerifyRoundTrip) {
  std::vector<std::uint8_t> buffer;
  wire::begin_checksum(buffer);
  for (std::uint8_t i = 0; i < 200; ++i) buffer.push_back(i);
  wire::seal_checksum(buffer);
  std::size_t offset = 0;
  ASSERT_TRUE(wire::verify_checksum(buffer, offset));
  EXPECT_EQ(offset, wire::kChecksumBytes);
}

TEST(WireChecksum, DetectsCorruptionAndTruncation) {
  std::vector<std::uint8_t> buffer;
  wire::begin_checksum(buffer);
  for (std::uint8_t i = 0; i < 64; ++i) buffer.push_back(i);
  wire::seal_checksum(buffer);

  auto flipped = buffer;
  flipped[wire::kChecksumBytes + 10] ^= 0x40;  // payload bit flip
  std::size_t offset = 0;
  EXPECT_FALSE(wire::verify_checksum(flipped, offset));
  EXPECT_EQ(offset, 0u);  // offset untouched on failure

  auto truncated = buffer;
  truncated.pop_back();
  offset = 0;
  EXPECT_FALSE(wire::verify_checksum(truncated, offset));

  auto header_hit = buffer;
  header_hit[0] ^= 0x01;  // checksum header itself corrupted
  offset = 0;
  EXPECT_FALSE(wire::verify_checksum(header_hit, offset));
}

TEST(WireChecksum, EmptyPayloadVerifies) {
  std::vector<std::uint8_t> buffer;
  wire::begin_checksum(buffer);
  wire::seal_checksum(buffer);
  std::size_t offset = 0;
  EXPECT_TRUE(wire::verify_checksum(buffer, offset));
  EXPECT_EQ(offset, buffer.size());
}

// --- counters plumbing ---

TEST(FaultCounters, MergeAndAny) {
  stat::FaultCounters a;
  EXPECT_FALSE(a.any());
  stat::FaultCounters b;
  b.retries = 2;
  b.duplicates = 1;
  a.merge(b);
  a.merge(b);
  EXPECT_TRUE(a.any());
  EXPECT_EQ(a.retries, 4u);
  EXPECT_EQ(a.duplicates, 2u);
  EXPECT_EQ(a.timeouts, 0u);
}

// --- the chaos matrix: fault seeds x rank counts x engines ---

TEST(Chaos, ResultsAreByteIdenticalUnderInjection) {
  const core::EngineConfig config;  // full compute: compare real alignments
  for (const std::size_t ranks : {2ul, 4ul}) {
    const Workload w = make_workload(ranks);
    for (const bool async_mode : {false, true}) {
      const RunOutcome clean = run_engine(async_mode, ranks, w, config);
      ASSERT_FALSE(clean.records.empty());
      for (const std::uint64_t seed : {1ull, 7ull, 1234567ull}) {
        const rt::FaultPlan plan = rt::FaultPlan::from_seed(seed);
        const RunOutcome chaos = run_engine(async_mode, ranks, w, config, plan);
        SCOPED_TRACE((async_mode ? "async" : "bsp") + std::string(" ranks=") +
                     std::to_string(ranks) + " seed=" + std::to_string(seed));
        expect_identical(chaos, clean);
      }
    }
  }
}

TEST(Chaos, ComputeThreadsStayByteIdenticalUnderInjection) {
  // The worker pool must not perturb results even when the fault layer is
  // scrambling delivery: at every thread count the accepted set equals the
  // serial fault-free run, and the fault layer stays active (the exact
  // observation counts — where a duplicate gets dropped, say — are timing-
  // dependent and legitimately move with the thread count).
  constexpr std::size_t kRanks = 4;
  const Workload w = make_workload(kRanks);
  const rt::FaultPlan plan = rt::FaultPlan::from_seed(7);
  for (const bool async_mode : {false, true}) {
    core::EngineConfig serial;
    serial.proto.compute_threads = 1;
    const RunOutcome clean = run_engine(async_mode, kRanks, w, serial);
    ASSERT_FALSE(clean.records.empty());
    for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
      core::EngineConfig pooled;
      pooled.proto.compute_threads = threads;
      SCOPED_TRACE((async_mode ? "async" : "bsp") + std::string(" threads=") +
                   std::to_string(threads));
      const RunOutcome chaos = run_engine(async_mode, kRanks, w, pooled, plan);
      expect_identical(chaos, clean);
      // BSP has no RPCs for the injector to duplicate or time out; only the
      // async engine is expected to observe fault events in its counters.
      if (async_mode) {
        EXPECT_TRUE(chaos.faults.any());
      }
    }
  }
}

TEST(Chaos, HeavyDuplicationIsDeduplicated) {
  constexpr std::size_t kRanks = 4;
  const Workload w = make_workload(kRanks);
  const core::EngineConfig config;
  rt::FaultPlan plan;
  plan.seed = 11;
  plan.dup_prob = 1.0;  // every delivery duplicated
  const RunOutcome clean = run_engine(true, kRanks, w, config);
  const RunOutcome chaos = run_engine(true, kRanks, w, config, plan);
  expect_identical(chaos, clean);
  // Every duplicate was observed and dropped somewhere (caller-side drop,
  // callee-side cache, or rt-level orphan) — the counter must show it.
  EXPECT_GT(chaos.faults.duplicates, 0u);
}

TEST(Chaos, TinyTimeoutForcesRetriesWithoutChangingResults) {
  constexpr std::size_t kRanks = 4;
  const Workload w = make_workload(kRanks);
  core::EngineConfig config;
  config.proto.rpc_timeout = 1;  // re-issue on the first timeout scan
  config.proto.max_retries = 3;
  rt::FaultPlan plan;
  plan.seed = 3;
  plan.delay_prob = 0.8;  // hold replies long enough to look lost
  plan.max_delay_ticks = 4096;
  plan.dup_prob = 0.1;
  const core::EngineConfig clean_config;  // default: generous timeout
  const RunOutcome clean = run_engine(true, kRanks, w, clean_config);
  const RunOutcome chaos = run_engine(true, kRanks, w, config, plan);
  expect_identical(chaos, clean);
  EXPECT_GT(chaos.faults.retries, 0u);
  EXPECT_GT(chaos.faults.timeouts, 0u);
}

TEST(Chaos, StragglersDoNotDeadlockCollectives) {
  constexpr std::size_t kRanks = 4;
  const Workload w = make_workload(kRanks);
  const core::EngineConfig config;
  rt::FaultPlan plan;
  plan.seed = 21;
  plan.straggle_prob = 0.75;
  plan.max_straggle_us = 300;
  for (const bool async_mode : {false, true}) {
    const RunOutcome clean = run_engine(async_mode, kRanks, w, config);
    const RunOutcome chaos = run_engine(async_mode, kRanks, w, config, plan);
    SCOPED_TRACE(async_mode ? "async" : "bsp");
    expect_identical(chaos, clean);
  }
}

// --- the failure detector: partitions are suspected, then forgiven ---

TEST(Detector, PartitionedPeerIsSuspectedThenCleared) {
  // Cut the 0<->1 link for a window much longer than the lease: a side
  // polling through it suspects the other (silence > lease), quarantines
  // it, and clears the suspicion as a false one when the link heals — all
  // without perturbing a single output byte. Only the async engine drives
  // RPC progress (and with it the detector); BSP collectives ride the mail
  // slots.
  constexpr std::size_t kRanks = 4;
  constexpr std::uint64_t kLease = 64;
  const Workload w = make_workload(kRanks);
  const core::EngineConfig config;
  const RunOutcome clean = run_engine(true, kRanks, w, config);
  ASSERT_FALSE(clean.records.empty());

  rt::FaultPlan plan;
  plan.seed = 61;
  const rt::PartitionEvent cut{0, 1, 50, 600};
  plan.partitions.push_back(cut);
  rt::World world(kRanks);
  world.set_faults(plan);
  world.set_detector_lease(kLease);  // suspect quickly inside the window
  std::vector<core::EngineResult> results(kRanks);
  // The engine can finish before a rank has polled through the window
  // (no request is in flight once the exit barrier passes). So every rank
  // then polls until it has seen all ranks' ticks past the window's end
  // plus the lease, and once more. Of ranks 0 and 1, the one that reaches
  // the window first polls through it (a suspicion after the lease), and
  // its last poll sees the other's tick moved since the window opened (a
  // clear), however the threads are scheduled.
  const std::uint64_t settled = cut.at_tick + cut.duration + kLease + 1;
  world.run([&](rt::Rank& rank) {
    results[rank.id()] = core::async_align(rank, w.dataset.reads, w.tasks.bounds,
                                           w.tasks.per_rank[rank.id()], config);
    const auto all_settled = [&] {
      for (std::uint32_t r = 0; r < kRanks; ++r)
        if (rank.rpc().peer_ticks(r) < settled) return false;
      return true;
    };
    while (!all_settled())
      if (rank.rpc().progress() == 0) std::this_thread::yield();
    (void)rank.rpc().progress();
  });
  RunOutcome chaos;
  for (const auto& result : results) {
    chaos.exchange_bytes += result.exchange_bytes_received;
    chaos.records.insert(chaos.records.end(), result.accepted.begin(),
                         result.accepted.end());
  }
  for (const stat::Breakdown& b : world.breakdowns()) chaos.faults.merge(b.faults);
  std::sort(chaos.records.begin(), chaos.records.end(),
            [](const align::AlignmentRecord& x, const align::AlignmentRecord& y) {
              return std::tie(x.read_a, x.read_b, x.alignment.score) <
                     std::tie(y.read_a, y.read_b, y.alignment.score);
            });
  expect_identical(chaos, clean);
  EXPECT_GE(chaos.faults.suspected, 1u);
  EXPECT_GE(chaos.faults.false_suspicions, 1u);
}

TEST(Chaos, PartitionWindowHealsWithoutChangingResults) {
  // Default lease: the partition stalls traffic (async) or nothing at all
  // (BSP), and either way the output is byte-identical.
  constexpr std::size_t kRanks = 4;
  const Workload w = make_workload(kRanks);
  const core::EngineConfig config;
  const rt::FaultPlan plan = rt::FaultPlan::parse("seed=63,partition@0|1:50:1200");
  for (const bool async_mode : {false, true}) {
    const RunOutcome clean = run_engine(async_mode, kRanks, w, config);
    const RunOutcome chaos = run_engine(async_mode, kRanks, w, config, plan);
    SCOPED_TRACE(async_mode ? "async" : "bsp");
    expect_identical(chaos, clean);
  }
}

TEST(Chaos, SelfHealingFullStackStaysByteIdentical) {
  // Crash + restart/rejoin + partition + write-time durable-log corruption
  // in one plan: the union of every self-healing path, still byte-clean.
  constexpr std::size_t kRanks = 4;
  const Workload w = make_workload(kRanks);
  const core::EngineConfig config;
  const rt::FaultPlan plan = rt::FaultPlan::parse(
      "seed=77,crash@1:2,restart@1:0,partition@0|2:64:1500,corrupt@1:2:0");
  for (const bool async_mode : {false, true}) {
    const RunOutcome clean = run_engine(async_mode, kRanks, w, config);
    const RunOutcome chaos = run_engine(async_mode, kRanks, w, config, plan);
    SCOPED_TRACE(async_mode ? "async" : "bsp");
    expect_identical(chaos, clean, /*compare_exchange=*/false);
    EXPECT_GT(chaos.faults.crashes, 0u);
  }
}

TEST(Chaos, DisabledPlanInstallsNoInjector) {
  rt::World world(2);
  world.set_faults(rt::FaultPlan{});  // disabled plan clears injection
  EXPECT_EQ(world.faults(), nullptr);
  world.set_faults(rt::FaultPlan::from_seed(1));
  EXPECT_NE(world.faults(), nullptr);
  world.set_faults(rt::FaultPlan{});
  EXPECT_EQ(world.faults(), nullptr);
}
