#include "oracle/harmonic_kuhn.hpp"

namespace rmts::oracle {

namespace {

/// Strict order for the divisibility poset over period multiset entries.
/// Equal periods are mutually harmonic; indices break the tie so the order
/// stays irreflexive while keeping duplicates comparable.
bool divides_strictly(std::span<const Time> periods, std::size_t a, std::size_t b) {
  if (periods[b] % periods[a] != 0) return false;
  if (periods[a] != periods[b]) return true;
  return a < b;
}

/// Kuhn's augmenting-path maximum matching on the bipartite graph whose
/// left/right copies are the poset elements and whose edges are the strict
/// divisibility pairs.  `match_left[u]` ends up holding u's successor in
/// its chain (or npos).
struct ChainMatching {
  std::vector<std::size_t> match_left;   // successor of u, npos if none
  std::vector<std::size_t> match_right;  // predecessor of v, npos if none
  std::size_t matched = 0;
};

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

bool try_augment(std::span<const Time> periods, std::size_t u,
                 std::vector<char>& visited, ChainMatching& m) {
  const std::size_t n = periods.size();
  for (std::size_t v = 0; v < n; ++v) {
    if (visited[v] || !divides_strictly(periods, u, v)) continue;
    visited[v] = 1;
    if (m.match_right[v] == kNone ||
        try_augment(periods, m.match_right[v], visited, m)) {
      m.match_left[u] = v;
      m.match_right[v] = u;
      return true;
    }
  }
  return false;
}

ChainMatching max_matching(std::span<const Time> periods) {
  const std::size_t n = periods.size();
  ChainMatching m;
  m.match_left.assign(n, kNone);
  m.match_right.assign(n, kNone);
  for (std::size_t u = 0; u < n; ++u) {
    std::vector<char> visited(n, 0);
    if (try_augment(periods, u, visited, m)) ++m.matched;
  }
  return m;
}

}  // namespace

std::size_t min_harmonic_chains(std::span<const Time> periods) {
  if (periods.empty()) return 0;
  // Minimum chain cover of a poset = N - maximum matching (Dilworth via
  // Fulkerson's bipartite construction; valid because divisibility is
  // transitive, so path cover == chain cover).
  return periods.size() - max_matching(periods).matched;
}

std::vector<std::vector<std::size_t>> min_harmonic_chain_partition(
    std::span<const Time> periods) {
  const std::size_t n = periods.size();
  const ChainMatching m = max_matching(periods);
  std::vector<std::vector<std::size_t>> chains;
  for (std::size_t u = 0; u < n; ++u) {
    if (m.match_right[u] != kNone) continue;  // not a chain head
    std::vector<std::size_t> chain;
    for (std::size_t v = u; v != kNone; v = m.match_left[v]) {
      chain.push_back(v);
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

}  // namespace rmts::oracle
