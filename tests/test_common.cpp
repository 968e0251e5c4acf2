// Unit tests for the common utilities (RNG, aligned buffers, tables, CLI).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/aligned.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace fcma {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.next_u64() == b.next_u64());
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const float v = rng.uniform(-2.5f, 3.5f);
    EXPECT_GE(v, -2.5f);
    EXPECT_LT(v, 3.5f);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform_index(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, GaussianMomentsMatchStandardNormal) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, GaussianWithParamsShiftsAndScales) {
  Rng rng(17);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.02);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(21);
  Rng c0 = parent.fork(0);
  Rng c1 = parent.fork(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (c0.next_u64() == c1.next_u64());
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(3);
  Rng b(3);
  EXPECT_EQ(a.fork(5).next_u64(), b.fork(5).next_u64());
}

TEST(AlignedBuffer, ProvidesAlignedStorage) {
  AlignedBuffer<float> buf(1000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
  EXPECT_EQ(buf.size(), 1000u);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<float> a(10);
  a[0] = 42.0f;
  float* p = a.data();
  AlignedBuffer<float> b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[0], 42.0f);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT: inspecting moved-from state
  EXPECT_TRUE(a.empty());
}

TEST(AlignedBuffer, ResetReallocates) {
  AlignedBuffer<double> buf(4);
  buf.reset(100);
  EXPECT_EQ(buf.size(), 100u);
  buf.reset(0);
  EXPECT_TRUE(buf.empty());
}

TEST(AlignedBuffer, SpanCoversAllElements) {
  AlignedBuffer<int> buf(5);
  for (int i = 0; i < 5; ++i) buf[i] = i;
  auto s = buf.span();
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[4], 4);
}

TEST(Error, CheckThrowsWithMessage) {
  try {
    FCMA_CHECK(false, "bad thing");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("bad thing"), std::string::npos);
  }
}

TEST(Error, AssertThrows) {
  EXPECT_THROW(FCMA_ASSERT(1 == 2), Error);
}

TEST(Table, FormatsAlignedRows) {
  Table t("demo");
  t.header({"a", "long-header", "c"});
  t.row({"1", "2", "3"});
  t.row({"10", "20", "30"});
  const std::string s = t.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("long-header"), std::string::npos);
  EXPECT_NE(s.find("| 10"), std::string::npos);
}

TEST(Table, NumFormatsDigits) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, CountInsertsSeparators) {
  EXPECT_EQ(Table::count(1234567), "1,234,567");
  EXPECT_EQ(Table::count(12), "12");
  EXPECT_EQ(Table::count(-1000), "-1,000");
  EXPECT_EQ(Table::count(0), "0");
}

TEST(Table, RowWidthMismatchThrows) {
  Table t("x");
  t.header({"a", "b"});
  EXPECT_THROW(t.row({"only-one"}), Error);
}

TEST(Cli, ParsesFlagsAndDefaults) {
  Cli cli("prog", "test");
  cli.add_flag("nodes", "4", "node count");
  cli.add_flag("name", "abc", "a name");
  const char* argv[] = {"prog", "--nodes", "16"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("nodes"), 16);
  EXPECT_EQ(cli.get("name"), "abc");
}

TEST(Cli, ParsesEqualsSyntax) {
  Cli cli("prog", "test");
  cli.add_flag("scale", "1.0", "scaling");
  const char* argv[] = {"prog", "--scale=0.25"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_DOUBLE_EQ(cli.get_double("scale"), 0.25);
}

TEST(Cli, BooleanFlagWithoutValue) {
  Cli cli("prog", "test");
  cli.add_flag("full", "false", "run at paper dims");
  const char* argv[] = {"prog", "--full"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("full"));
}

TEST(Cli, UnknownFlagThrows) {
  Cli cli("prog", "test");
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW(cli.parse(3, argv), Error);
}

TEST(Cli, MalformedNumbersThrow) {
  Cli cli("prog", "test");
  cli.add_flag("top-k", "20", "count");
  cli.add_flag("fdr", "0.05", "level");
  const auto int_of = [&](const char* value) {
    const char* argv[] = {"prog", "--top-k", value};
    EXPECT_TRUE(cli.parse(3, argv));
    return cli.get_int("top-k");
  };
  const auto double_of = [&](const char* value) {
    const char* argv[] = {"prog", "--fdr", value};
    EXPECT_TRUE(cli.parse(3, argv));
    return cli.get_double("fdr");
  };
  EXPECT_EQ(int_of("-6"), -6);
  EXPECT_THROW(int_of("6x"), Error);
  EXPECT_THROW(int_of("abc"), Error);
  EXPECT_THROW(int_of(""), Error);
  EXPECT_THROW(int_of(" 6"), Error);
  EXPECT_THROW(int_of("1.5"), Error);
  EXPECT_THROW(int_of("99999999999999999999"), Error);
  EXPECT_DOUBLE_EQ(double_of("1e-3"), 1e-3);
  EXPECT_THROW(double_of("0.05q"), Error);
  EXPECT_THROW(double_of(""), Error);
  EXPECT_THROW(double_of("1e999"), Error);
}

TEST(Cli, BoolAcceptsOnlyKnownSpellings) {
  Cli cli("prog", "test");
  cli.add_flag("full", "false", "flag");
  const auto bool_of = [&](const std::string& value) {
    const std::string arg = "--full=" + value;
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_TRUE(cli.parse(2, argv));
    return cli.get_bool("full");
  };
  EXPECT_TRUE(bool_of("yes"));
  EXPECT_TRUE(bool_of("1"));
  EXPECT_FALSE(bool_of("no"));
  EXPECT_FALSE(bool_of("0"));
  EXPECT_FALSE(bool_of("false"));
  EXPECT_THROW(bool_of("maybe"), Error);
  EXPECT_THROW(bool_of("TRUE"), Error);
  EXPECT_THROW(bool_of(""), Error);
}

TEST(Cli, ParseHelpersNameTheSource) {
  EXPECT_EQ(parse_int("32", "FCMA_TL_RING"), 32);
  try {
    (void)parse_int("3 2", "FCMA_TL_RING");
    FAIL() << "expected fcma::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("FCMA_TL_RING"), std::string::npos);
  }
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli("prog", "test");
  cli.add_flag("x", "1", "x");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(WallTimer, MeasuresElapsedTime) {
  WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(double(i));
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.millis(), t.seconds() * 1000.0 * 0.99);
}

TEST(ScopedAccumulator, AddsToSink) {
  double total = 0.0;
  {
    ScopedAccumulator acc(total);
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  EXPECT_GE(total, 0.0);
}

}  // namespace
}  // namespace fcma
