// Unit tests for src/common: integer time helpers, checked arithmetic,
// the deterministic RNG, and the table emitter.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/checked_math.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/time.hpp"

namespace rmts {
namespace {

TEST(CeilDiv, ExactAndInexact) {
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div(10, 5), 2);
  EXPECT_EQ(ceil_div(11, 5), 3);
  EXPECT_EQ(ceil_div(1, 1000000), 1);
}

TEST(FloorDiv, Basics) {
  EXPECT_EQ(floor_div(11, 5), 2);
  EXPECT_EQ(floor_div(10, 5), 2);
}

TEST(CheckedMul, SmallValues) {
  EXPECT_EQ(checked_mul(6, 7), Time{42});
  EXPECT_EQ(checked_mul(0, kTimeInfinity), Time{0});
}

TEST(CheckedMul, OverflowDetected) {
  EXPECT_FALSE(checked_mul(kTimeInfinity, 2).has_value());
  EXPECT_FALSE(checked_mul(Time{1} << 40, Time{1} << 40).has_value());
}

TEST(CheckedAdd, OverflowDetected) {
  EXPECT_EQ(checked_add(1, 2), Time{3});
  EXPECT_FALSE(checked_add(kTimeInfinity, 1).has_value());
}

TEST(CheckedLcm, Basics) {
  EXPECT_EQ(checked_lcm(4, 6), Time{12});
  EXPECT_EQ(checked_lcm(7, 7), Time{7});
  EXPECT_EQ(checked_lcm(1, 9), Time{9});
}

TEST(Hyperperiod, SmallGrid) {
  const std::vector<Time> periods{1000, 1200, 1500, 2000};
  EXPECT_EQ(hyperperiod(periods), Time{6000});
}

TEST(Hyperperiod, OverflowReported) {
  // Pairwise-coprime large primes blow past int64.
  const std::vector<Time> periods{1000003, 1000033, 1000037, 1000039,
                                  1000081, 1000099, 1000117};
  EXPECT_FALSE(hyperperiod(periods).has_value());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkIndependentOfParentConsumption) {
  // fork(k) must not depend on how much the parent stream was used after
  // construction -- experiments rely on (seed, index) determinism.
  Rng parent1(7);
  Rng parent2(7);
  (void)parent2;  // parent1 and parent2 identical; fork before any use
  const Rng f1 = parent1.fork(3);
  const Rng f2 = parent2.fork(3);
  Rng a = f1;
  Rng b = f2;
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ForkedStreamsDecorrelated) {
  Rng parent(7);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(3, 10);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 10);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u);  // all 8 values hit
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, LogUniformRespectsBoundsAndSpreads) {
  Rng rng(11);
  int low_decade = 0;
  for (int i = 0; i < 5000; ++i) {
    const Time t = rng.log_uniform_time(1000, 1000000);
    ASSERT_GE(t, 1000);
    ASSERT_LE(t, 1000000);
    if (t < 10000) ++low_decade;
  }
  // Log-uniform: each decade gets ~1/3 of the mass (uniform would give 1%).
  EXPECT_NEAR(static_cast<double>(low_decade) / 5000.0, 1.0 / 3.0, 0.05);
}

TEST(Table, TextRenderingAligns) {
  Table table({"a", "long_header"});
  table.add_row({"1", "2"});
  table.add_row({"333", "4"});
  std::ostringstream os;
  table.print_text(os, "demo");
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, CsvRendering) {
  Table table({"x", "y"});
  table.add_row({"1", "2"});
  std::ostringstream os;
  table.print_csv(os);
  EXPECT_EQ(os.str(), "x,y\n1,2\n");
}

TEST(Table, ArityMismatchThrows) {
  Table table({"x", "y"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(0.5, 3), "0.500");
  EXPECT_EQ(Table::num(1.0 / 3.0, 2), "0.33");
}

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(json_escape("hello world 123"), "hello world 123");
}

TEST(JsonEscape, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscape, EscapesNamedControlCharacters) {
  EXPECT_EQ(json_escape("a\nb\tc\rd\be\ff"), "a\\nb\\tc\\rd\\be\\ff");
}

TEST(JsonEscape, EscapesBareControlCharactersAsUnicode) {
  // The pre-fix escaper passed these through raw, producing invalid JSON
  // in bench reports for any label containing control bytes.
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_escape(std::string("\x1f", 1)), "\\u001f");
  EXPECT_EQ(json_escape(std::string{'a', '\0', 'b'}), "a\\u0000b");
}

TEST(JsonEscape, LeavesHighBytesAlone) {
  // UTF-8 multibyte sequences must pass through unmodified.
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");
}

}  // namespace
}  // namespace rmts
