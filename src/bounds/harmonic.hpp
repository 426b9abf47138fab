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

#include <cstddef>
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

/// HC-Bound(tau) = K(2^{1/K} - 1) with K the minimum harmonic chain count.
class HarmonicChainBound final : public ParametricBound {
 public:
  [[nodiscard]] double evaluate(const TaskSet& tasks) const override;
  [[nodiscard]] std::string name() const override { return "HC"; }
};

/// The closed-form K(2^{1/K} - 1); K = 0 maps to 1.0 (empty set).
[[nodiscard]] double harmonic_chain_bound_value(std::size_t chains) noexcept;

}  // namespace rmts
