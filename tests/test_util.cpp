// Unit tests for gnb_util: RNG, statistics, tables, memory accounting,
// timers, and wire packing.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "util/memory.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/wire.hpp"

using namespace gnb;

// ---------- RNG ----------

TEST(Rng, DeterministicForSameSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(7);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, BelowNeverReachesBound) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 10'000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues) {
  Xoshiro256 rng(11);
  std::vector<int> seen(8, 0);
  for (int i = 0; i < 8'000; ++i) ++seen[rng.below(8)];
  for (int count : seen) EXPECT_GT(count, 700);
}

TEST(Rng, RangeInclusive) {
  Xoshiro256 rng(5);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 5'000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, NormalMoments) {
  Xoshiro256 rng(13);
  double sum = 0, sum2 = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, LognormalMean) {
  Xoshiro256 rng(17);
  const double mu = std::log(1000.0) - 0.16 / 2;
  double sum = 0;
  const int n = 50'000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal(mu, 0.4);
  EXPECT_NEAR(sum / n, 1000.0, 30.0);
}

TEST(Rng, BernoulliRate) {
  Xoshiro256 rng(19);
  int hits = 0;
  for (int i = 0; i < 20'000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20'000.0, 0.3, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Xoshiro256 a(23);
  Xoshiro256 b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, Splitmix64KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 0, s2 = 0;
  for (int i = 0; i < 10; ++i) EXPECT_EQ(splitmix64(s1), splitmix64(s2));
}

// ---------- stats ----------

TEST(Stats, BasicMoments) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.sum(), 15.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.variance(), 2.5, 1e-12);
}

TEST(Stats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.imbalance(), 1.0);
}

TEST(Stats, MergeMatchesCombined) {
  Xoshiro256 rng(31);
  RunningStats all, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal() * 3 + 7;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Stats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(2.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Stats, ImbalanceIsMaxOverMean) {
  RunningStats s;
  s.add(1.0);
  s.add(1.0);
  s.add(4.0);
  EXPECT_DOUBLE_EQ(s.imbalance(), 4.0 / 2.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({5}), 5.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Stats, PercentileEndpoints) {
  std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 20.0);
}

TEST(Stats, ReduceSpan) {
  const std::vector<double> v{1, 2, 3};
  const RunningStats s = reduce(v);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.sum(), 6.0);
}

// ---------- table ----------

TEST(Table, PrettyAlignsAndIncludesData) {
  Table t({"name", "value"});
  t.add_row({std::string("alpha"), std::int64_t{42}});
  t.add_row({std::string("b"), 3.5});
  const std::string text = t.pretty();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("42"), std::string::npos);
  EXPECT_NE(text.find("3.5"), std::string::npos);
}

TEST(Table, CsvQuoting) {
  Table t({"a", "b"});
  t.add_row({std::string("x,y"), std::string("he said \"hi\"")});
  const std::string csv = t.csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, RowSizeIsChecked) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({std::string("only one")}), "");
}

TEST(Format, Seconds) {
  EXPECT_EQ(format_seconds(2.5), "2.500 s");
  EXPECT_EQ(format_seconds(0.0025), "2.500 ms");
  EXPECT_EQ(format_seconds(2.5e-6), "2.5 us");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_NE(format_bytes(2048).find("KB"), std::string::npos);
  EXPECT_NE(format_bytes(3.0e6).find("MB"), std::string::npos);
  EXPECT_NE(format_bytes(3.0e9).find("GB"), std::string::npos);
}

// ---------- memory meter ----------

TEST(MemoryMeter, ChargeReleasePeak) {
  MemoryMeter m;
  m.charge(100);
  m.charge(50);
  EXPECT_EQ(m.live(), 150u);
  EXPECT_EQ(m.peak(), 150u);
  m.release(120);
  EXPECT_EQ(m.live(), 30u);
  EXPECT_EQ(m.peak(), 150u);
  m.charge(10);
  EXPECT_EQ(m.peak(), 150u);  // peak unchanged below high water
}

TEST(MemoryMeter, ScopedAllocation) {
  MemoryMeter m;
  {
    ScopedAllocation a(m, 64);
    EXPECT_EQ(m.live(), 64u);
  }
  EXPECT_EQ(m.live(), 0u);
  EXPECT_EQ(m.peak(), 64u);
}

TEST(MemoryMeter, ConcurrentChargesAreConsistent) {
  MemoryMeter m;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&m] {
      for (int i = 0; i < 1000; ++i) {
        m.charge(3);
        m.release(3);
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(m.live(), 0u);
  EXPECT_GE(m.peak(), 3u);
}

TEST(MemoryMeter, ProcessRssIsPositive) { EXPECT_GT(process_rss_bytes(), 0u); }

// ---------- timers ----------

TEST(Timer, ThreadCpuAdvancesUnderWork) {
  const double t0 = thread_cpu_seconds();
  volatile double x = 1;
  for (int i = 0; i < 2'000'000; ++i) x = x * 1.0000001;
  EXPECT_GT(thread_cpu_seconds(), t0);
}

// ---------- wire ----------

TEST(Wire, RoundTripMixed) {
  std::vector<std::uint8_t> buf;
  wire::put<std::uint32_t>(buf, 0xDEADBEEF);
  wire::put<std::uint64_t>(buf, 0x0123456789ABCDEFULL);
  wire::put<std::uint8_t>(buf, 7);
  wire::put<std::uint16_t>(buf, 65535);
  std::size_t off = 0;
  EXPECT_EQ(wire::get<std::uint32_t>(buf, off), 0xDEADBEEFu);
  EXPECT_EQ(wire::get<std::uint64_t>(buf, off), 0x0123456789ABCDEFULL);
  EXPECT_EQ(wire::get<std::uint8_t>(buf, off), 7u);
  EXPECT_EQ(wire::get<std::uint16_t>(buf, off), 65535u);
  EXPECT_EQ(off, buf.size());
}

TEST(Wire, TruncatedBufferThrows) {
  std::vector<std::uint8_t> buf{1, 2};
  std::size_t off = 0;
  EXPECT_THROW(wire::get<std::uint32_t>(buf, off), Error);
}

TEST(Wire, LittleEndianLayout) {
  std::vector<std::uint8_t> buf;
  wire::put<std::uint32_t>(buf, 0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[3], 0x01);
}

// ---------- wire framing (checksum-framed payloads) ----------

TEST(WireFraming, EmptyPayloadRoundTrips) {
  std::vector<std::uint8_t> buf;
  wire::begin_checksum(buf);
  wire::seal_checksum(buf);
  ASSERT_EQ(buf.size(), wire::kChecksumBytes);
  std::size_t off = 0;
  ASSERT_TRUE(wire::verify_checksum(buf, off));
  EXPECT_EQ(off, buf.size());  // nothing left after the header
}

TEST(WireFraming, OneBytePayloadRoundTrips) {
  std::vector<std::uint8_t> buf;
  wire::begin_checksum(buf);
  buf.push_back(0xA5);
  wire::seal_checksum(buf);
  std::size_t off = 0;
  ASSERT_TRUE(wire::verify_checksum(buf, off));
  EXPECT_EQ(wire::get<std::uint8_t>(buf, off), 0xA5u);
  EXPECT_EQ(off, buf.size());
}

TEST(WireFraming, HugePayloadRoundTrips) {
  // Past any plausible internal 32-bit or 64-MiB assumption: the BSP
  // engine frames whole aggregated rounds through this path.
  constexpr std::size_t kHuge = (std::size_t{64} << 20) + 4'097;
  std::vector<std::uint8_t> buf;
  buf.reserve(wire::kChecksumBytes + kHuge);
  wire::begin_checksum(buf);
  for (std::size_t i = 0; i < kHuge; ++i)
    buf.push_back(static_cast<std::uint8_t>(i * 0x9E37 >> 8));
  wire::seal_checksum(buf);
  std::size_t off = 0;
  ASSERT_TRUE(wire::verify_checksum(buf, off));
  EXPECT_EQ(off, wire::kChecksumBytes);
  // A single flipped bit deep in the payload must be caught.
  buf[wire::kChecksumBytes + kHuge / 2] ^= 0x10;
  off = 0;
  EXPECT_FALSE(wire::verify_checksum(buf, off));
  EXPECT_EQ(off, 0u);
}

TEST(WireFraming, CorruptedHeaderIsRejected) {
  std::vector<std::uint8_t> buf;
  wire::begin_checksum(buf);
  for (std::uint8_t i = 0; i < 32; ++i) buf.push_back(i);
  wire::seal_checksum(buf);
  for (std::size_t byte = 0; byte < wire::kChecksumBytes; ++byte) {
    auto corrupt = buf;
    corrupt[byte] ^= 0x80;
    std::size_t off = 0;
    EXPECT_FALSE(wire::verify_checksum(corrupt, off)) << "header byte " << byte;
    EXPECT_EQ(off, 0u) << "offset must not advance on failure";
  }
  // A buffer shorter than the header cannot verify.
  std::vector<std::uint8_t> stub(wire::kChecksumBytes - 1, 0);
  std::size_t off = 0;
  EXPECT_FALSE(wire::verify_checksum(stub, off));
}

TEST(WireFraming, MidBufferFrameVerifies) {
  // Frames need not start at offset 0: recovery rounds append a framed
  // section after a plain prefix.
  std::vector<std::uint8_t> buf{9, 9, 9};
  const std::size_t start = buf.size();
  wire::begin_checksum(buf);
  for (std::uint8_t i = 0; i < 10; ++i) buf.push_back(i);
  wire::seal_checksum(buf, start);
  std::size_t off = start;
  ASSERT_TRUE(wire::verify_checksum(buf, off));
  EXPECT_EQ(off, start + wire::kChecksumBytes);
}
