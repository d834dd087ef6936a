// Unit tests for src/common: types, RNG, bit I/O, strings, phred, timers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/crc32.hpp"
#include "src/common/error.hpp"
#include "src/common/phred.hpp"
#include "src/common/rng.hpp"
#include "src/common/strings.hpp"
#include "src/common/timer.hpp"
#include "src/common/types.hpp"

namespace gsnp {
namespace {

// ---- types -----------------------------------------------------------------

TEST(Types, BaseCharRoundTrip) {
  for (u8 b = 0; b < kNumBases; ++b)
    EXPECT_EQ(base_from_char(char_from_base(b)), b);
}

TEST(Types, BaseFromCharHandlesCase) {
  EXPECT_EQ(base_from_char('a'), base_from_char('A'));
  EXPECT_EQ(base_from_char('t'), base_from_char('T'));
  EXPECT_EQ(base_from_char('g'), base_from_char('G'));
  EXPECT_EQ(base_from_char('c'), base_from_char('C'));
}

TEST(Types, InvalidBaseMapsToN) {
  EXPECT_EQ(base_from_char('N'), kInvalidBase);
  EXPECT_EQ(base_from_char('X'), kInvalidBase);
  EXPECT_EQ(char_from_base(kInvalidBase), 'N');
}

TEST(Types, ComplementPairsAreWatsonCrick) {
  EXPECT_EQ(char_from_base(complement(base_from_char('A'))), 'T');
  EXPECT_EQ(char_from_base(complement(base_from_char('T'))), 'A');
  EXPECT_EQ(char_from_base(complement(base_from_char('C'))), 'G');
  EXPECT_EQ(char_from_base(complement(base_from_char('G'))), 'C');
}

TEST(Types, ComplementIsInvolution) {
  for (u8 b = 0; b < kNumBases; ++b) EXPECT_EQ(complement(complement(b)), b);
}

TEST(Types, TransitionsAreAGAndCT) {
  const u8 A = base_from_char('A'), G = base_from_char('G');
  const u8 C = base_from_char('C'), T = base_from_char('T');
  EXPECT_TRUE(is_transition(A, G));
  EXPECT_TRUE(is_transition(G, A));
  EXPECT_TRUE(is_transition(C, T));
  EXPECT_FALSE(is_transition(A, C));
  EXPECT_FALSE(is_transition(A, T));
  EXPECT_FALSE(is_transition(G, C));
  EXPECT_FALSE(is_transition(A, A));
}

TEST(Types, GenotypeRankRoundTrip) {
  int rank = 0;
  for (u8 a1 = 0; a1 < kNumBases; ++a1) {
    for (u8 a2 = a1; a2 < kNumBases; ++a2) {
      EXPECT_EQ(genotype_rank(a1, a2), rank);
      const Genotype g = genotype_from_rank(rank);
      EXPECT_EQ(g.allele1, a1);
      EXPECT_EQ(g.allele2, a2);
      ++rank;
    }
  }
  EXPECT_EQ(rank, kNumGenotypes);
}

TEST(Types, GenotypeToString) {
  EXPECT_EQ((Genotype{0, 2}.to_string()), "AG");
  EXPECT_EQ((Genotype{3, 3}.to_string()), "TT");
}

// ---- rng -------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(Rng, UniformCoversRange) {
  Rng rng(9);
  std::set<u64> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(17);
  std::set<i64> seen;
  for (int i = 0; i < 1000; ++i) {
    const i64 v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

// ---- bitio ------------------------------------------------------------------

TEST(BitIo, SingleBits) {
  BitWriter bw;
  const std::vector<int> bits = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1};
  for (const int b : bits) bw.write(static_cast<u64>(b), 1);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  for (const int b : bits) EXPECT_EQ(br.read(1), static_cast<u64>(b));
}

class BitIoWidth : public ::testing::TestWithParam<int> {};

TEST_P(BitIoWidth, RoundTripRandomValues) {
  const int width = GetParam();
  Rng rng(static_cast<u64>(width) * 1000 + 5);
  std::vector<u64> values(257);
  const u64 mask = width >= 64 ? ~0ULL : ((1ULL << width) - 1);
  for (auto& v : values) v = rng() & mask;

  BitWriter bw;
  for (const u64 v : values) bw.write(v, width);
  const auto bytes = bw.finish();
  BitReader br(bytes);
  for (const u64 v : values) EXPECT_EQ(br.read_wide(width), v);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitIoWidth,
                         ::testing::Values(1, 2, 3, 5, 7, 8, 9, 13, 16, 21, 31,
                                           32, 33, 47, 57, 63, 64));

TEST(BitIo, WriteMasksHighBits) {
  BitWriter bw;
  bw.write(0xFF, 4);  // only low 4 bits should be kept
  bw.write(0x0, 4);
  const auto bytes = bw.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x0F);
}

TEST(BitIo, BitCountTracksBits) {
  BitWriter bw;
  bw.write(1, 3);
  EXPECT_EQ(bw.bit_count(), 3u);
  bw.write(1, 13);
  EXPECT_EQ(bw.bit_count(), 16u);
}

TEST(BitIo, ReaderThrowsPastEnd) {
  const std::vector<u8> one_byte = {0xAB};
  BitReader br(one_byte);
  br.read(8);
  EXPECT_THROW(br.read(1), Error);
}

TEST(BitIo, BitsFor) {
  EXPECT_EQ(bits_for(1), 1);
  EXPECT_EQ(bits_for(2), 1);
  EXPECT_EQ(bits_for(3), 2);
  EXPECT_EQ(bits_for(4), 2);
  EXPECT_EQ(bits_for(5), 3);
  EXPECT_EQ(bits_for(256), 8);
  EXPECT_EQ(bits_for(257), 9);
}

TEST(Varint, RoundTripBoundaries) {
  const std::vector<u64> values = {0,   1,   127,        128,
                                   255, 300, 16383,      16384,
                                   1ULL << 32, ~0ULL};
  std::vector<u8> buf;
  for (const u64 v : values) varint_append(buf, v);
  std::size_t pos = 0;
  for (const u64 v : values) EXPECT_EQ(varint_read(buf, pos), v);
  EXPECT_EQ(pos, buf.size());
}

TEST(Varint, ThrowsOnTruncation) {
  std::vector<u8> buf;
  varint_append(buf, 1ULL << 40);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_THROW(varint_read(buf, pos), Error);
}

// ---- strings -----------------------------------------------------------------

TEST(Strings, SplitPreservesEmptyFields) {
  const auto fields = split("a\t\tb\t", '\t');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(Strings, SplitSingleField) {
  const auto fields = split("hello", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "hello");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\r\n"), "");
  EXPECT_EQ(trim("a b"), "a b");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int<int>("42"), 42);
  EXPECT_EQ(parse_int<i64>("-7"), -7);
  EXPECT_THROW(parse_int<int>("4x"), Error);
  EXPECT_THROW(parse_int<int>(""), Error);
  EXPECT_THROW(parse_int<u32>("99999999999999"), Error);
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e3"), -1000.0);
  EXPECT_THROW(parse_double("abc"), Error);
}

// ---- phred ---------------------------------------------------------------------

TEST(Phred, ErrorProbabilities) {
  EXPECT_DOUBLE_EQ(phred_to_error(0), 1.0);
  EXPECT_NEAR(phred_to_error(10), 0.1, 1e-12);
  EXPECT_NEAR(phred_to_error(30), 0.001, 1e-12);
}

TEST(Phred, ErrorToPhredInverse) {
  for (int q = 1; q < kQualityLevels; ++q)
    EXPECT_EQ(error_to_phred(phred_to_error(q)), q);
}

TEST(Phred, CharRoundTrip) {
  for (int q = 0; q < kQualityLevels; ++q)
    EXPECT_EQ(quality_from_char(quality_to_char(q)), q);
}

TEST(Phred, ClampQuality) {
  EXPECT_EQ(clamp_quality(-5), 0);
  EXPECT_EQ(clamp_quality(1000), kQualityLevels - 1);
  EXPECT_EQ(clamp_quality(33), 33);
}

// ---- error -----------------------------------------------------------------------

TEST(ErrorChecks, CheckThrowsWithLocation) {
  try {
    GSNP_CHECK_MSG(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom detail 42"), std::string::npos);
  }
}

// ---- timer ------------------------------------------------------------------------

TEST(Timer, StopwatchSetAccumulates) {
  StopwatchSet set;
  set.add("a", 1.5);
  set.add("b", 2.0);
  set.add("a", 0.5);
  EXPECT_DOUBLE_EQ(set.get("a"), 2.0);
  EXPECT_DOUBLE_EQ(set.get("b"), 2.0);
  EXPECT_DOUBLE_EQ(set.get("missing"), 0.0);
  EXPECT_DOUBLE_EQ(set.total(), 4.0);
}

TEST(Timer, StopwatchSetPreservesInsertionOrder) {
  StopwatchSet set;
  set.add("z", 1);
  set.add("a", 1);
  set.add("m", 1);
  ASSERT_EQ(set.entries().size(), 3u);
  EXPECT_EQ(set.entries()[0].first, "z");
  EXPECT_EQ(set.entries()[1].first, "a");
  EXPECT_EQ(set.entries()[2].first, "m");
}

TEST(Timer, ScopeAddsElapsed) {
  StopwatchSet set;
  {
    const auto scope = set.scope("x");
  }
  EXPECT_GE(set.get("x"), 0.0);
  EXPECT_LT(set.get("x"), 1.0);
}

TEST(Timer, StopwatchSetConcurrentAddsAreExact) {
  // Regression: StopwatchSet had no synchronization while the engines use it
  // from several threads at once — concurrent add() was a data race on the
  // entries vector.  Hammer it from four threads across a few names
  // (forcing both the insert and the accumulate path) and check nothing is
  // lost, duplicated or torn.
  constexpr int kThreads = 4;
  const auto on_threads = [](auto&& body) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
    for (std::thread& t : threads) t.join();
  };
  StopwatchSet set;
  constexpr int kIters = 20'000;
  const char* names[] = {"read", "count", "likeli", "post", "output"};
  on_threads([&](int t) {
    for (int i = t; i < kIters; i += kThreads) {
      set.add(names[i % 5], 1.0);
      if (i % 100 == 0) (void)set.total();  // concurrent reads too
    }
  });
  for (const char* name : names) EXPECT_DOUBLE_EQ(set.get(name), kIters / 5.0);
  EXPECT_DOUBLE_EQ(set.total(), static_cast<double>(kIters));
  EXPECT_EQ(set.entries().size(), 5u);

  // Scopes from concurrent workers must also be safe (the engine pattern).
  StopwatchSet scoped;
  on_threads([&](int t) {
    for (int i = t; i < 256; i += kThreads) {
      const auto scope = scoped.scope(names[i % 5]);
    }
  });
  EXPECT_EQ(scoped.entries().size(), 5u);
  EXPECT_GE(scoped.total(), 0.0);
}

// ---- crc32 -----------------------------------------------------------------

TEST(Crc32, KnownVector) {
  // The IEEE CRC-32 check value: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::vector<u8> data(1337);
  Rng rng(5);
  for (auto& b : data) b = static_cast<u8>(rng.uniform(256));
  const u32 oneshot = crc32(data.data(), data.size());

  Crc32 crc;
  // Feed in uneven slices, crossing the slicing-by-4 alignment boundaries.
  std::size_t at = 0;
  for (const std::size_t step : {1u, 3u, 4u, 7u, 64u, 1000u, 258u}) {
    crc.update(data.data() + at, std::min(step, data.size() - at));
    at += std::min(step, data.size() - at);
  }
  EXPECT_EQ(at, data.size());
  EXPECT_EQ(crc.value(), oneshot);
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<u8> data(256);
  Rng rng(9);
  for (auto& b : data) b = static_cast<u8>(rng.uniform(256));
  const u32 clean = crc32(data.data(), data.size());
  for (int trial = 0; trial < 64; ++trial) {
    auto copy = data;
    copy[rng.uniform(copy.size())] ^= static_cast<u8>(1u << rng.uniform(8));
    if (copy == data) continue;
    EXPECT_NE(crc32(copy.data(), copy.size()), clean);
  }
}

}  // namespace
}  // namespace gsnp
