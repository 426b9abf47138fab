// harmonic_detail::ExactDivisor, the division-free d | n test behind the
// harmonic-chain divisibility order, against the % operator: exhaustively
// on small operands, then on random 63-bit ones aimed at the edges
// (multiples and their neighbours, powers of two, odd divisors near 2^63).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "bounds/harmonic.hpp"
#include "common/rng.hpp"

namespace rmts {
namespace {

using harmonic_detail::ExactDivisor;

constexpr std::uint64_t kMaxPeriod = std::numeric_limits<std::int64_t>::max();

TEST(ExactDivisor, MatchesRemainderExhaustivelyUpTo4096) {
  std::uint64_t mismatches = 0;
  for (std::uint64_t d = 1; d <= 4096; ++d) {
    const ExactDivisor divisor(d);
    for (std::uint64_t n = 0; n <= 4096; ++n) {
      if (divisor.divides(n) != (n % d == 0)) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0U);
}

/// Checks n, and n - 1 and n + 1 where they stay in [0, 2^63).
void expect_agrees_around(const ExactDivisor& divisor, std::uint64_t d,
                          std::uint64_t n) {
  EXPECT_EQ(divisor.divides(n), n % d == 0) << n << " / " << d;
  if (n > 0) {
    EXPECT_EQ(divisor.divides(n - 1), (n - 1) % d == 0) << n - 1 << " / " << d;
  }
  if (n < kMaxPeriod) {
    EXPECT_EQ(divisor.divides(n + 1), (n + 1) % d == 0) << n + 1 << " / " << d;
  }
}

/// Random multiples q * d below 2^63 and their neighbours, plus random n.
void expect_agrees_on_random(Rng& rng, std::uint64_t d) {
  const ExactDivisor divisor(d);
  const std::uint64_t max_quotient = kMaxPeriod / d;
  for (int k = 0; k < 8; ++k) {
    const auto q = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(max_quotient)));
    expect_agrees_around(divisor, d, q * d);
    const auto n =
        static_cast<std::uint64_t>(rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()));
    expect_agrees_around(divisor, d, n);
  }
  expect_agrees_around(divisor, d, max_quotient * d);  // the largest multiple
}

TEST(ExactDivisor, MatchesRemainderOnRandom63BitPairs) {
  Rng rng(2024);
  for (int draw = 0; draw < 20000; ++draw) {
    // Log-uniform divisors, so every magnitude up to 2^63 is covered.
    const int bits = static_cast<int>(rng.uniform_int(1, 63));
    const auto d = static_cast<std::uint64_t>(rng.uniform_int(
        std::int64_t{1} << (bits - 1),
        bits == 63 ? std::numeric_limits<std::int64_t>::max()
                   : (std::int64_t{1} << bits) - 1));
    expect_agrees_on_random(rng, d);
  }
}

TEST(ExactDivisor, MatchesRemainderForPowersOfTwoAndOddDivisorsNear2To63) {
  Rng rng(63);
  for (int k = 0; k < 63; ++k) {
    expect_agrees_on_random(rng, std::uint64_t{1} << k);
    // d = 2^k times a small odd factor mixes the rotate with the inverse.
    if (k < 60) expect_agrees_on_random(rng, (std::uint64_t{1} << k) * 5);
  }
  for (std::uint64_t offset = 0; offset < 2000; ++offset) {
    expect_agrees_on_random(rng, (kMaxPeriod - 2 * offset) | 1U);
  }
}

}  // namespace
}  // namespace rmts
