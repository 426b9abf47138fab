// Harmonic-chain analysis and the harmonic-chain bound [21] (Kuo & Mok).
//
// A harmonic chain is a set of tasks whose periods pairwise divide.  The
// harmonic-chain bound HC(tau) = K(2^{1/K} - 1) where K is the number of
// harmonic chains tau decomposes into; K = 1 (fully harmonic set) yields
// the 100% bound [26].  Fewer chains -> higher bound, so we compute the
// MINIMUM chain partition of the divisibility poset.  By Dilworth's
// theorem this equals N minus a maximum bipartite matching on the strict
// divisibility relation, which we solve exactly with Kuhn's augmenting-path
// algorithm over a bitset adjacency of the period-sorted relation, built
// once per call (task counts here are small).  A cheaper greedy
// decomposition is provided for comparison/ablation; it never produces
// fewer chains.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "bounds/bound.hpp"
#include "common/time.hpp"

namespace rmts {

/// Minimum number of harmonic chains covering positive `periods` (exact,
/// via maximum bipartite matching on the strict divisibility order).
/// Returns 0 for an empty input.
[[nodiscard]] std::size_t min_harmonic_chains(std::span<const Time> periods);

/// Greedy chain count: scan periods in non-decreasing order, append each to
/// the first existing chain whose largest period divides it, else open a
/// new chain.  Upper-bounds min_harmonic_chains (tested); kept as the
/// historical/cheap alternative.
[[nodiscard]] std::size_t greedy_harmonic_chains(std::span<const Time> periods);

/// An explicit minimum chain partition: each inner vector lists the indices
/// of `periods` forming one chain, in non-decreasing period order.
[[nodiscard]] std::vector<std::vector<std::size_t>> min_harmonic_chain_partition(
    std::span<const Time> periods);

namespace harmonic_detail {

/// Exact test of d | n for one fixed divisor d >= 1 and any n < 2^64,
/// without a division (Granlund & Montgomery, PLDI 1994; Hacker's
/// Delight, 2nd ed., section 10-17).  Write d = d0 * 2^k with d0 odd and
/// let L = floor((2^64 - 1) / d).  Then
///
///   d | n  <=>  rotr(n * d0^-1 mod 2^64, k) <= L.
///
/// Proof.  f(n) = rotr(n * d0^-1 mod 2^64, k) is a bijection of
/// [0, 2^64): d0 is odd, so multiplying by d0^-1 permutes the residues
/// mod 2^64, and a rotation permutes the bit patterns.  (=>) A multiple
/// n = q * d < 2^64 has q <= L, and n * d0^-1 = q * 2^k (mod 2^64) with
/// q * 2^k <= n < 2^64, so the product is q * 2^k exactly, its low k bits
/// are 0, and f(n) = q <= L.  (<=) The L + 1 multiples 0, d, ..., L * d
/// below 2^64 thus map one to one onto all of {0, ..., L}; f being
/// injective, no other n maps there.  So the test is exact for every
/// period in [1, 2^63) with no remainder fallback.
///
/// The constants are computed once per divisor; each test is then one
/// multiply, one rotate and one compare.
class ExactDivisor {
 public:
  /// Requires d >= 1.
  explicit constexpr ExactDivisor(std::uint64_t d) noexcept
      : shift_(std::countr_zero(d)),
        limit_(~std::uint64_t{0} / d),
        inverse_(odd_inverse(d >> shift_)) {}

  [[nodiscard]] constexpr bool divides(std::uint64_t n) const noexcept {
    return std::rotr(n * inverse_, shift_) <= limit_;
  }

 private:
  /// odd^-1 mod 2^64.  Newton's iteration x <- x(2 - odd x) doubles the
  /// number of correct low bits; 3 odd XOR 2 is odd's inverse mod 2^5
  /// (Montgomery's start), so four steps give 5 -> 10 -> 20 -> 40 -> 80
  /// >= 64 bits.
  static constexpr std::uint64_t odd_inverse(std::uint64_t odd) noexcept {
    std::uint64_t inverse = (3 * odd) ^ 2;
    for (int step = 0; step < 4; ++step) inverse *= 2 - odd * inverse;
    return inverse;
  }

  int shift_;
  std::uint64_t limit_;
  std::uint64_t inverse_;
};

}  // namespace harmonic_detail

/// HC-Bound(tau) = K(2^{1/K} - 1) with K the minimum harmonic chain count.
class HarmonicChainBound final : public ParametricBound {
 public:
  [[nodiscard]] double evaluate(const TaskSet& tasks) const override;
  [[nodiscard]] std::string name() const override { return "HC"; }
};

/// The closed-form K(2^{1/K} - 1); K = 0 maps to 1.0 (empty set).
[[nodiscard]] double harmonic_chain_bound_value(std::size_t chains) noexcept;

}  // namespace rmts
