#include "bounds/harmonic.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

namespace rmts {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// The strict divisibility order over the periods, sorted by (period,
/// index): position i precedes j iff i < j and T_i | T_j.  Equal periods
/// are mutually harmonic, so sorting breaks their tie by index and keeps
/// the order irreflexive.  Row i is a bitset over the positions i
/// precedes, built once, so the matching only scans words.
struct DivisibilityOrder {
  std::size_t words{0};             ///< 64-bit words per row
  std::vector<std::size_t> order;   ///< sorted position -> input index
  std::vector<std::uint64_t> rows;  ///< size() rows of `words` words

  [[nodiscard]] std::size_t size() const noexcept { return order.size(); }
  [[nodiscard]] const std::uint64_t* row(std::size_t i) const noexcept {
    return rows.data() + i * words;
  }
};

DivisibilityOrder divisibility_order(std::span<const Time> periods) {
  const std::size_t n = periods.size();
  DivisibilityOrder out;
  out.words = (n + 63) / 64;
  out.order.resize(n);
  std::iota(out.order.begin(), out.order.end(), std::size_t{0});
  std::sort(out.order.begin(), out.order.end(), [&](std::size_t a, std::size_t b) {
    return periods[a] != periods[b] ? periods[a] < periods[b] : a < b;
  });
  std::vector<Time> sorted(n);
  for (std::size_t i = 0; i < n; ++i) sorted[i] = periods[out.order[i]];
  out.rows.assign(n * out.words, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t* row = out.rows.data() + i * out.words;
    // Periods are positive, so the exact multiply-by-inverse test applies
    // (harmonic.hpp); its constants are built once per row.
    const harmonic_detail::ExactDivisor divisor(
        static_cast<std::uint64_t>(sorted[i]));
    for (std::size_t j = i + 1; j < n; ++j) {
      if (divisor.divides(static_cast<std::uint64_t>(sorted[j]))) {
        row[j / 64] |= std::uint64_t{1} << (j % 64);
      }
    }
  }
  return out;
}

/// Kuhn's augmenting-path maximum matching on the bipartite graph whose
/// left/right copies are the sorted positions and whose edges are the
/// precedence pairs.  `next[u]` ends up holding u's successor in its
/// chain and `prev[v]` v's predecessor (or kNone).
struct ChainMatching {
  std::vector<std::size_t> next;
  std::vector<std::size_t> prev;
  std::size_t matched = 0;
};

/// Scans u's unvisited successors word by word.
bool try_augment(const DivisibilityOrder& order, std::size_t u,
                 std::vector<std::uint64_t>& visited, ChainMatching& m) {
  const std::uint64_t* row = order.row(u);
  for (std::size_t w = 0; w < order.words; ++w) {
    std::uint64_t open = row[w] & ~visited[w];
    while (open != 0) {
      const auto bit = static_cast<unsigned>(std::countr_zero(open));
      const std::size_t v = w * 64 + bit;
      visited[w] |= std::uint64_t{1} << bit;
      if (m.prev[v] == kNone || try_augment(order, m.prev[v], visited, m)) {
        m.next[u] = v;
        m.prev[v] = u;
        return true;
      }
      open = row[w] & ~visited[w];  // the recursion may have visited more
    }
  }
  return false;
}

ChainMatching max_matching(const DivisibilityOrder& order) {
  ChainMatching m;
  m.next.assign(order.size(), kNone);
  m.prev.assign(order.size(), kNone);
  std::vector<std::uint64_t> visited(order.words);
  for (std::size_t u = 0; u < order.size(); ++u) {
    std::fill(visited.begin(), visited.end(), 0);
    if (try_augment(order, u, visited, m)) ++m.matched;
  }
  return m;
}

}  // namespace

std::size_t min_harmonic_chains(std::span<const Time> periods) {
  if (periods.empty()) return 0;
  // Minimum chain cover of a poset = N - maximum matching (Dilworth via
  // Fulkerson's bipartite construction; valid because divisibility is
  // transitive, so path cover == chain cover).
  return periods.size() - max_matching(divisibility_order(periods)).matched;
}

std::vector<std::vector<std::size_t>> min_harmonic_chain_partition(
    std::span<const Time> periods) {
  const DivisibilityOrder order = divisibility_order(periods);
  const ChainMatching m = max_matching(order);
  std::vector<std::vector<std::size_t>> chains;
  for (std::size_t u = 0; u < order.size(); ++u) {
    if (m.prev[u] != kNone) continue;  // not a chain head
    std::vector<std::size_t> chain;
    for (std::size_t v = u; v != kNone; v = m.next[v]) {
      chain.push_back(order.order[v]);
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

std::size_t greedy_harmonic_chains(std::span<const Time> periods) {
  std::vector<std::size_t> order(periods.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return periods[a] < periods[b];
  });
  std::vector<Time> chain_tail;  // largest period of each open chain
  for (const std::size_t idx : order) {
    const Time p = periods[idx];
    auto fits = std::find_if(chain_tail.begin(), chain_tail.end(),
                             [&](Time tail) { return p % tail == 0; });
    if (fits != chain_tail.end()) {
      *fits = p;
    } else {
      chain_tail.push_back(p);
    }
  }
  return chain_tail.size();
}

double harmonic_chain_bound_value(std::size_t chains) noexcept {
  if (chains == 0) return 1.0;
  const double k = static_cast<double>(chains);
  return k * (std::pow(2.0, 1.0 / k) - 1.0);
}

double HarmonicChainBound::evaluate(const TaskSet& tasks) const {
  const std::vector<Time> periods = tasks.periods();
  return harmonic_chain_bound_value(min_harmonic_chains(periods));
}

}  // namespace rmts
