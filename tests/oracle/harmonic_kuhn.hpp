// Test-only oracle: the minimum harmonic-chain cover the library shipped
// before its bitset matching (bounds/harmonic.hpp).  Kuhn's augmenting
// paths over the strict divisibility order, re-testing `%` on every pair
// of every attempt, in the input's index order.  The bounds property
// test compares the shipped matching against it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/time.hpp"

namespace rmts::oracle {

/// Minimum number of harmonic chains covering `periods` (N minus a
/// maximum matching on the strict divisibility order).  0 for an empty
/// input.
[[nodiscard]] std::size_t min_harmonic_chains(std::span<const Time> periods);

/// A minimum chain cover: index lists into `periods`, each in
/// non-decreasing period order.
[[nodiscard]] std::vector<std::vector<std::size_t>> min_harmonic_chain_partition(
    std::span<const Time> periods);

}  // namespace rmts::oracle
