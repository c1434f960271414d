#include <gtest/gtest.h>

#include <sstream>

#include "util/check.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/units.h"

namespace ds {
namespace {

TEST(Units, LiteralConversions) {
  EXPECT_DOUBLE_EQ(1_KB, 1e3);
  EXPECT_DOUBLE_EQ(10_MB, 1e7);
  EXPECT_DOUBLE_EQ(3_GB, 3e9);
  EXPECT_DOUBLE_EQ(100_Mbps, 100e6 / 8.0);
  EXPECT_DOUBLE_EQ(2_Gbps, 2e9 / 8.0);
  EXPECT_DOUBLE_EQ(80_MBps, 80e6);
  EXPECT_DOUBLE_EQ(to_MB(5_MB), 5.0);
  EXPECT_DOUBLE_EQ(to_Mbps(100_Mbps), 100.0);
  EXPECT_DOUBLE_EQ(to_MBps(32.9_MBps), 32.9);
}

TEST(Check, ThrowsWithMessage) {
  EXPECT_NO_THROW(DS_CHECK(1 + 1 == 2));
  try {
    DS_CHECK_MSG(false, "context " << 42);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformBoundsAndMean) {
  Rng r(7);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.uniform(2.0, 4.0);
    ASSERT_GE(v, 2.0);
    ASSERT_LT(v, 4.0);
    sum += v;
  }
  EXPECT_NEAR(sum / kN, 3.0, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng r(11);
  bool lo = false, hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(5, 8);
    ASSERT_GE(v, 5);
    ASSERT_LE(v, 8);
    lo |= (v == 5);
    hi |= (v == 8);
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  double sum = 0, ss = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.normal(10.0, 3.0);
    sum += v;
    ss += v * v;
  }
  const double mean = sum / kN;
  const double var = ss / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += r.exponential(0.5);
  EXPECT_NEAR(sum / kN, 2.0, 0.05);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng a(99);
  Rng c1 = a.fork();
  Rng a2(99);
  Rng c2 = a2.fork();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y \t"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseU64) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_u64("12345", v));
  EXPECT_EQ(v, 12345u);
  EXPECT_FALSE(parse_u64("12x", v));
  EXPECT_FALSE(parse_u64("", v));
  EXPECT_FALSE(parse_u64("-3", v));
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("3.5", v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(parse_double("-1e3", v));
  EXPECT_DOUBLE_EQ(v, -1000.0);
  EXPECT_FALSE(parse_double("abc", v));
  EXPECT_FALSE(parse_double("", v));
}

TEST(Table, AlignsAndFormats) {
  TablePrinter t({"name", "jct"});
  t.set_precision(1);
  t.add_row({std::string("TriangleCount"), 780.25});
  t.add_row({std::string("LDA"), std::int64_t{420}});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("TriangleCount"), std::string::npos);
  EXPECT_NE(s.find("780.2"), std::string::npos);  // 780.25 at 1 digit (half-to-even)
  EXPECT_NE(s.find("420"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, RejectsMisshapenRow) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only one")}), CheckError);
}

}  // namespace
}  // namespace ds
