// Tests for the threaded SPMD runtime: collectives, the RPC engine and
// the split-phase / service barriers, exercised with real concurrency.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "obs/spans.hpp"
#include "obs/trace.hpp"
#include "rt/world.hpp"
#include "util/rng.hpp"
#include "util/wire.hpp"

using namespace gnb;
using namespace gnb::rt;

// ---------- collectives ----------

class WorldRanks : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorldRanks, BarrierSeparatesPhases) {
  World world(GetParam());
  std::atomic<int> phase_one{0};
  std::atomic<bool> violated{false};
  world.run([&](Rank& rank) {
    phase_one.fetch_add(1);
    rank.barrier();
    // After the barrier every rank must have completed phase one.
    if (phase_one.load() != static_cast<int>(rank.nranks())) violated = true;
  });
  EXPECT_FALSE(violated.load());
}

TEST_P(WorldRanks, AllreduceSumMinMax) {
  World world(GetParam());
  const std::size_t p = GetParam();
  world.run([&](Rank& rank) {
    const double mine = static_cast<double>(rank.id()) + 1;
    const double sum = rank.allreduce_sum(mine);
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(p * (p + 1)) / 2);
    EXPECT_DOUBLE_EQ(rank.allreduce_min(mine), 1.0);
    EXPECT_DOUBLE_EQ(rank.allreduce_max(mine), static_cast<double>(p));
  });
}

TEST_P(WorldRanks, AllgatherReturnsEveryValue) {
  World world(GetParam());
  world.run([&](Rank& rank) {
    const auto values = rank.allgather(static_cast<double>(rank.id()) * 10);
    ASSERT_EQ(values.size(), rank.nranks());
    for (std::size_t r = 0; r < values.size(); ++r)
      EXPECT_DOUBLE_EQ(values[r], static_cast<double>(r) * 10);
  });
}

TEST_P(WorldRanks, AlltoallDeliversTaggedValues) {
  World world(GetParam());
  const std::size_t p = GetParam();
  world.run([&](Rank& rank) {
    std::vector<std::uint64_t> send(p);
    for (std::size_t dst = 0; dst < p; ++dst) send[dst] = rank.id() * 1000 + dst;
    const auto recv = rank.alltoall(send);
    ASSERT_EQ(recv.size(), p);
    for (std::size_t src = 0; src < p; ++src) EXPECT_EQ(recv[src], src * 1000 + rank.id());
  });
}

TEST_P(WorldRanks, AlltoallvConservesTaggedBytes) {
  World world(GetParam());
  const std::size_t p = GetParam();
  world.run([&](Rank& rank) {
    Xoshiro256 rng(rank.id() + 100);
    std::vector<Bytes> send(p);
    for (std::size_t dst = 0; dst < p; ++dst) {
      const std::size_t len = rng.below(300);
      send[dst].resize(len);
      // Tag each byte with a (src, dst)-dependent pattern.
      for (std::size_t i = 0; i < len; ++i)
        send[dst][i] = static_cast<std::uint8_t>((rank.id() * 7 + dst * 13 + i) & 0xFF);
    }
    std::vector<std::size_t> sent_lens(p);
    for (std::size_t dst = 0; dst < p; ++dst) sent_lens[dst] = send[dst].size();

    const auto recv = rank.alltoallv(std::move(send));
    ASSERT_EQ(recv.size(), p);
    for (std::size_t src = 0; src < p; ++src) {
      // Reconstruct what src must have sent us: src's RNG stream.
      Xoshiro256 src_rng(src + 100);
      std::size_t expect_len = 0;
      for (std::size_t dst = 0; dst <= rank.id(); ++dst) expect_len = src_rng.below(300);
      ASSERT_EQ(recv[src].size(), expect_len);
      for (std::size_t i = 0; i < expect_len; ++i)
        EXPECT_EQ(recv[src][i],
                  static_cast<std::uint8_t>((src * 7 + rank.id() * 13 + i) & 0xFF));
    }
  });
}

TEST_P(WorldRanks, BackToBackCollectivesDoNotInterfere) {
  World world(GetParam());
  const std::size_t p = GetParam();
  world.run([&](Rank& rank) {
    for (int round = 0; round < 5; ++round) {
      std::vector<Bytes> send(p);
      for (std::size_t dst = 0; dst < p; ++dst)
        send[dst] = Bytes{static_cast<std::uint8_t>(round), static_cast<std::uint8_t>(rank.id())};
      const auto recv = rank.alltoallv(std::move(send));
      for (std::size_t src = 0; src < p; ++src) {
        ASSERT_EQ(recv[src].size(), 2u);
        EXPECT_EQ(recv[src][0], static_cast<std::uint8_t>(round));
        EXPECT_EQ(recv[src][1], static_cast<std::uint8_t>(src));
      }
      EXPECT_DOUBLE_EQ(rank.allreduce_sum(1.0), static_cast<double>(p));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, WorldRanks, ::testing::Values(1, 2, 3, 4, 8));

TEST_P(WorldRanks, BroadcastFromEveryRoot) {
  World world(GetParam());
  const std::size_t p = GetParam();
  world.run([&](Rank& rank) {
    for (RankId root = 0; root < p; ++root) {
      Bytes buffer;
      if (rank.id() == root) buffer = Bytes{static_cast<std::uint8_t>(root), 0xBE};
      const Bytes received = rank.broadcast(std::move(buffer), root);
      ASSERT_EQ(received.size(), 2u);
      EXPECT_EQ(received[0], static_cast<std::uint8_t>(root));
      EXPECT_EQ(received[1], 0xBE);
    }
  });
}

TEST_P(WorldRanks, GatherCollectsOntoRoot) {
  World world(GetParam());
  const std::size_t p = GetParam();
  world.run([&](Rank& rank) {
    const RankId root = static_cast<RankId>(p - 1);
    Bytes mine(rank.id() + 1, static_cast<std::uint8_t>(rank.id()));
    const auto gathered = rank.gather(std::move(mine), root);
    if (rank.id() == root) {
      ASSERT_EQ(gathered.size(), p);
      for (std::size_t src = 0; src < p; ++src) {
        EXPECT_EQ(gathered[src].size(), src + 1);
        if (!gathered[src].empty()) {
          EXPECT_EQ(gathered[src][0], static_cast<std::uint8_t>(src));
        }
      }
    } else {
      EXPECT_TRUE(gathered.empty());
    }
  });
}

TEST_P(WorldRanks, ExscanIsExclusivePrefixSum) {
  World world(GetParam());
  world.run([&](Rank& rank) {
    const double mine = static_cast<double>(rank.id()) + 1;
    const double prefix = rank.exscan_sum(mine);
    // Sum of 1..id.
    EXPECT_DOUBLE_EQ(prefix, static_cast<double>(rank.id()) *
                                 static_cast<double>(rank.id() + 1) / 2.0);
  });
}

TEST(World, RunTwiceOnSameWorld) {
  World world(3);
  std::atomic<int> counter{0};
  for (int run = 0; run < 2; ++run) {
    world.run([&](Rank& rank) {
      rank.barrier();
      counter.fetch_add(1);
      rank.barrier();
    });
  }
  EXPECT_EQ(counter.load(), 6);
}

TEST(World, BreakdownsCollected) {
  // Phase seconds are a view of the trace: 0 while nothing records, and
  // then each run's own spans by category; memory is metered either way.
  World world(2);
  world.run([&](Rank& rank) {
    rank.memory().charge(100);
    rank.barrier();
  });
  ASSERT_EQ(world.breakdowns().size(), 2u);
  EXPECT_EQ(world.breakdowns()[1].peak_memory, 100u);
  for (const stat::Breakdown& b : world.breakdowns()) EXPECT_EQ(b.total(), 0.0);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  world.run([&](Rank& rank) {
    {
      GNB_SPAN(obs::span::kComputeBatch);
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    rank.barrier();
  });
  const std::vector<stat::Breakdown> first = world.breakdowns();
  world.run([&](Rank& rank) { rank.barrier(); });  // same trace epoch, no compute
  tracer.disable();
  ASSERT_EQ(first.size(), 2u);
#if GNB_TRACE_ENABLED
  EXPECT_GE(first[0].compute, 0.003);
  EXPECT_GE(first[1].compute, 0.003);
  EXPECT_GT(first[0].sync, 0.0);
  EXPECT_GT(first[1].sync, 0.0);
#else
  for (const stat::Breakdown& b : first) EXPECT_EQ(b.total(), 0.0);
#endif
  for (const stat::Breakdown& b : first) EXPECT_EQ(b.comm, 0.0);
  // A run attributes only the events recorded during it.
  for (const stat::Breakdown& b : world.breakdowns()) EXPECT_EQ(b.compute, 0.0);
}

// ---------- RPC ----------

TEST(Rpc, EchoRoundTrip) {
  World world(2);
  world.run([&](Rank& rank) {
    rank.rpc().register_handler(1, [](std::uint32_t, std::span<const std::uint8_t> in) {
      RpcEndpoint::Bytes reply(in.begin(), in.end());
      reply.push_back(0xAA);
      return reply;
    });
    rank.barrier();  // handlers registered everywhere
    bool got = false;
    const std::uint32_t peer = 1 - rank.id();
    rank.rpc().call(peer, 1, {1, 2, 3}, [&](RpcEndpoint::Bytes reply) {
      ASSERT_EQ(reply.size(), 4u);
      EXPECT_EQ(reply[0], 1);
      EXPECT_EQ(reply[3], 0xAA);
      got = true;
    });
    rank.rpc().drain();
    EXPECT_TRUE(got);
    rank.service_barrier();
  });
}

TEST(Rpc, ManyMessagesAllAnswered) {
  World world(4);
  world.run([&](Rank& rank) {
    rank.rpc().register_handler(7, [&](std::uint32_t, std::span<const std::uint8_t> in) {
      std::size_t offset = 0;
      const auto x = wire::get<std::uint32_t>(in, offset);
      RpcEndpoint::Bytes reply;
      wire::put<std::uint32_t>(reply, x * 2);
      return reply;
    });
    rank.barrier();
    std::uint64_t answered = 0;
    Xoshiro256 rng(rank.id());
    for (std::uint32_t i = 0; i < 500; ++i) {
      rank.rpc().throttle(32);
      const auto target = static_cast<std::uint32_t>(rng.below(4));
      RpcEndpoint::Bytes payload;
      wire::put<std::uint32_t>(payload, i);
      rank.rpc().call(target, 7, std::move(payload), [&answered, i](RpcEndpoint::Bytes reply) {
        std::size_t offset = 0;
        EXPECT_EQ(wire::get<std::uint32_t>(reply, offset), i * 2);
        ++answered;
      });
    }
    rank.rpc().drain();
    EXPECT_EQ(answered, 500u);
    EXPECT_EQ(rank.rpc().messages_sent(), 500u);
    rank.service_barrier();
  });
}

TEST(Rpc, ThrottleBoundsOutstanding) {
  World world(2);
  world.run([&](Rank& rank) {
    rank.rpc().register_handler(2, [](std::uint32_t, std::span<const std::uint8_t>) {
      return RpcEndpoint::Bytes{};
    });
    rank.barrier();
    for (int i = 0; i < 100; ++i) {
      rank.rpc().throttle(8);
      EXPECT_LT(rank.rpc().outstanding(), 8u);
      rank.rpc().call(1 - rank.id(), 2, {}, [](RpcEndpoint::Bytes) {});
    }
    rank.rpc().drain();
    EXPECT_EQ(rank.rpc().outstanding(), 0u);
    rank.service_barrier();
  });
}

TEST(Rpc, SelfCallWorks) {
  World world(1);
  world.run([&](Rank& rank) {
    rank.rpc().register_handler(3, [](std::uint32_t src, std::span<const std::uint8_t>) {
      EXPECT_EQ(src, 0u);
      return RpcEndpoint::Bytes{42};
    });
    bool got = false;
    rank.rpc().call(0, 3, {}, [&](RpcEndpoint::Bytes reply) {
      EXPECT_EQ(reply.at(0), 42);
      got = true;
    });
    rank.rpc().drain();
    EXPECT_TRUE(got);
    rank.service_barrier();
  });
}

TEST(Rpc, ServedCountsTracked) {
  World world(2);
  world.run([&](Rank& rank) {
    rank.rpc().register_handler(4, [](std::uint32_t, std::span<const std::uint8_t>) {
      return RpcEndpoint::Bytes{};
    });
    rank.barrier();
    if (rank.id() == 0) {
      for (int i = 0; i < 10; ++i) rank.rpc().call(1, 4, {}, [](RpcEndpoint::Bytes) {});
      rank.rpc().drain();
    }
    rank.service_barrier();
    if (rank.id() == 1) {
      EXPECT_EQ(rank.rpc().requests_served(), 10u);
    }
  });
}

TEST(Rpc, StressManyRanksMixedTrafficAndThrottles) {
  // Endpoint stress: 8 ranks hammer call/progress/throttle concurrently
  // with varying payload sizes, varying throttle limits, and bursts of
  // back-to-back calls — the workload the ThreadSanitizer CI job runs to
  // flush data races out of the inbox/held-queue locking.
  constexpr std::size_t kRanks = 8;
  constexpr std::uint32_t kCalls = 400;
  World world(kRanks);
  world.run([&](Rank& rank) {
    rank.rpc().register_handler(21, [](std::uint32_t, std::span<const std::uint8_t> in) {
      // Echo back the payload checksum so the caller can verify integrity.
      RpcEndpoint::Bytes reply;
      wire::put<std::uint64_t>(reply, wire::checksum(in));
      return reply;
    });
    rank.barrier();
    std::uint64_t answered = 0;
    Xoshiro256 rng(rank.id() * 17 + 5);
    for (std::uint32_t i = 0; i < kCalls; ++i) {
      rank.rpc().throttle(1 + rng.below(64));  // shifting window limits
      const auto target = static_cast<std::uint32_t>(rng.below(kRanks));
      RpcEndpoint::Bytes payload(rng.below(256), static_cast<std::uint8_t>(i));
      const std::uint64_t expected = wire::checksum(payload);
      rank.rpc().call(target, 21, std::move(payload),
                      [&answered, expected](RpcEndpoint::Bytes reply) {
                        std::size_t offset = 0;
                        EXPECT_EQ(wire::get<std::uint64_t>(reply, offset), expected);
                        ++answered;
                      });
      if (rng.below(4) == 0) rank.rpc().progress();  // interleave extra polls
    }
    rank.rpc().drain();
    EXPECT_EQ(answered, kCalls);
    rank.service_barrier();
  });
}

TEST(Rpc, StressUnderFaultInjectionStillCompletesEveryCall) {
  // Same hammering, with every injector fault mode active. The endpoint
  // contract under injection: each call's callback still fires exactly
  // once (duplicate replies are dropped as orphans), no delivery is lost,
  // and the run terminates.
  constexpr std::size_t kRanks = 4;
  constexpr std::uint32_t kCalls = 250;
  World world(kRanks);
  FaultPlan plan;
  plan.seed = 77;
  plan.delay_prob = 0.4;
  plan.max_delay_ticks = 12;
  plan.dup_prob = 0.3;
  plan.reorder_prob = 0.3;
  world.set_faults(plan);
  world.run([&](Rank& rank) {
    rank.rpc().register_handler(22, [](std::uint32_t, std::span<const std::uint8_t> in) {
      return RpcEndpoint::Bytes(in.begin(), in.end());
    });
    rank.barrier();
    std::uint64_t answered = 0;
    Xoshiro256 rng(rank.id() + 900);
    for (std::uint32_t i = 0; i < kCalls; ++i) {
      rank.rpc().throttle(16);
      const auto target = static_cast<std::uint32_t>(rng.below(kRanks));
      RpcEndpoint::Bytes payload;
      wire::put<std::uint32_t>(payload, i);
      rank.rpc().call(target, 22, std::move(payload),
                      [&answered, i](RpcEndpoint::Bytes reply) {
                        std::size_t offset = 0;
                        EXPECT_EQ(wire::get<std::uint32_t>(reply, offset), i);
                        ++answered;
                      });
    }
    rank.rpc().drain();
    EXPECT_EQ(answered, kCalls);
    rank.service_barrier();
  });
}

// ---------- split-phase and service barriers ----------

TEST(SplitBarrier, ComputesWhileWaiting) {
  World world(4);
  std::atomic<int> local_work{0};
  world.run([&](Rank& rank) {
    rank.split_barrier_arrive();
    local_work.fetch_add(1);  // "compute local tasks during the barrier"
    rank.split_barrier_wait();
    // When the wait completes, every rank has arrived (and so has had the
    // chance to do its local work before or during our wait).
    EXPECT_EQ(local_work.load(), 4);
  });
}

TEST(ServiceBarrier, ServesRequestsUntilEveryoneArrives) {
  // Rank 0 issues RPCs late; other ranks must stay serviceable inside the
  // service barrier.
  World world(4);
  world.run([&](Rank& rank) {
    rank.rpc().register_handler(9, [&](std::uint32_t, std::span<const std::uint8_t>) {
      RpcEndpoint::Bytes reply;
      wire::put<std::uint32_t>(reply, rank.id());
      return reply;
    });
    rank.barrier();
    if (rank.id() == 0) {
      std::size_t got = 0;
      for (std::uint32_t peer = 1; peer < 4; ++peer) {
        rank.rpc().call(peer, 9, {}, [&got, peer](RpcEndpoint::Bytes reply) {
          std::size_t offset = 0;
          EXPECT_EQ(wire::get<std::uint32_t>(reply, offset), peer);
          ++got;
        });
      }
      rank.rpc().drain();
      EXPECT_EQ(got, 3u);
    }
    rank.service_barrier();
  });
}

TEST(ServiceBarrier, RepeatedUseInOneRun) {
  World world(3);
  world.run([&](Rank& rank) {
    for (int round = 0; round < 3; ++round) rank.service_barrier();
  });
  SUCCEED();
}

TEST(Timers, CommChargedByAlltoallv) {
  // The alltoallv span is exchange: its time is the rank's comm, and the
  // alltoall and allgather spans are exchange and wait.
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.enable();
  World world(2);
  world.run([&](Rank& rank) {
    std::vector<Bytes> send(2, Bytes(128, 1));
    (void)rank.alltoallv(std::move(send));
    (void)rank.alltoall(std::vector<std::uint64_t>(2, 1));
    (void)rank.allreduce_max(1.0);
  });
  tracer.disable();
  for (const stat::Breakdown& b : world.breakdowns()) {
#if GNB_TRACE_ENABLED
    EXPECT_GT(b.comm, 0.0);
    EXPECT_GT(b.sync, 0.0);
#else
    EXPECT_EQ(b.comm, 0.0);
    EXPECT_EQ(b.sync, 0.0);
#endif
    EXPECT_EQ(b.compute, 0.0);
  }
}

// ---------- peer death: fail-fast RPC and durable storage ----------

TEST(Rpc, CallToDeadPeerFailsFastWithPeerDead) {
  World world(2);
  world.set_faults(FaultPlan::parse("crash@1:0"));
  world.run([&](Rank& rank) {
    if (rank.id() == 1) {
      rank.barrier();  // dies at its first collective entry (fault step 0)
      FAIL() << "rank 1 outlived its scheduled crash";
    }
    // Rank 0: pull from the (dying) peer with the status-aware overload and
    // poll until the in-flight request fails fast — no timeout involved.
    bool done = false;
    RpcStatus status = RpcStatus::kOk;
    rank.rpc().call(1, 99, {1, 2, 3}, [&](RpcStatus s, RpcEndpoint::Bytes reply) {
      status = s;
      EXPECT_TRUE(reply.empty());
      done = true;
    });
    while (!done) rank.rpc().progress();
    EXPECT_EQ(status, RpcStatus::kPeerDead);
    EXPECT_GE(rank.rpc().peer_death_failures(), 1u);
  });
}

TEST(Rpc, LegacyCallbackThrowsTypedErrorOnPeerDeath) {
  World world(2);
  world.set_faults(FaultPlan::parse("crash@1:0"));
  world.run([&](Rank& rank) {
    if (rank.id() == 1) {
      rank.barrier();  // dies at its first collective entry
      FAIL() << "rank 1 outlived its scheduled crash";
    }
    rank.rpc().call(1, 99, {}, [](RpcEndpoint::Bytes) { FAIL() << "reply from the dead"; });
    bool threw = false;
    while (!threw && rank.rpc().outstanding() > 0) {
      try {
        rank.rpc().progress();
      } catch (const RpcPeerDeadError&) {
        threw = true;
      }
    }
    EXPECT_TRUE(threw);
  });
}

TEST(Rpc, OutOfRangeTargetThrowsTypedRpcError) {
  World world(2);
  world.run([&](Rank& rank) {
    if (rank.id() != 0) return;
    EXPECT_THROW(rank.rpc().call(2, 1, {}, [](RpcEndpoint::Bytes) {}), RpcError);
    EXPECT_THROW(rank.rpc().call(17, 1, {}, [](RpcStatus, RpcEndpoint::Bytes) {}), RpcError);
  });
}

TEST(DurableStore, WritesSurviveAndAppendsAccumulate) {
  DurableStore store;
  store.reset(2);
  EXPECT_TRUE(store.manifest(0).empty());
  EXPECT_TRUE(store.log(1).empty());
  EXPECT_EQ(store.write_manifest(0, {1, 2, 3}), 3u);
  EXPECT_EQ(store.append_log(1, {9}), 1u);
  EXPECT_EQ(store.append_log(1, {8, 7}), 2u);
  EXPECT_EQ(store.manifest(0), (DurableStore::Bytes{1, 2, 3}));
  EXPECT_EQ(store.log(1), (DurableStore::Bytes{9, 8, 7}));
  EXPECT_EQ(store.bytes_written(), 6u);
  // reset() starts the next phase empty.
  store.reset(3);
  EXPECT_TRUE(store.manifest(0).empty());
  EXPECT_TRUE(store.log(1).empty());
  EXPECT_EQ(store.bytes_written(), 0u);
}

TEST(DurableStore, DeadWriterBytesRemainReadable) {
  // Durability contract: bytes a rank wrote before dying stay readable by
  // the survivors through World's store.
  World world(2);
  world.set_faults(FaultPlan::parse("crash@1:0"));
  world.run([&](Rank& rank) {
    if (rank.id() == 1) {
      rank.durable().write_manifest(1, {42, 43});
      rank.barrier();  // dies at its first collective entry
      FAIL() << "rank 1 outlived its scheduled crash";
    }
    while (rank.is_alive_now(1)) rank.rpc().progress();
    EXPECT_EQ(rank.durable().manifest(1), (DurableStore::Bytes{42, 43}));
  });
}
