// Parametric utilization bounds: closed forms, harmonic chain counting
// (exact vs greedy), period scaling, T/R bounds, deflatability, and the
// soundness of every bound as a uniprocessor RMS test.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "bounds/best_of.hpp"
#include "bounds/burchard.hpp"
#include "bounds/constant_bound.hpp"
#include "bounds/harmonic.hpp"
#include "bounds/ll_bound.hpp"
#include "bounds/scaled_periods.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "oracle/harmonic_kuhn.hpp"
#include "rta/rta.hpp"
#include "workload/generators.hpp"

namespace rmts {
namespace {

TEST(LiuLayland, KnownValues) {
  EXPECT_DOUBLE_EQ(liu_layland_theta(1), 1.0);
  EXPECT_NEAR(liu_layland_theta(2), 0.828427, 1e-6);
  EXPECT_NEAR(liu_layland_theta(3), 0.779763, 1e-6);
  EXPECT_NEAR(liu_layland_theta(10), 0.717734, 1e-6);
}

TEST(LiuLayland, MonotonicallyDecreasingToLn2) {
  double previous = liu_layland_theta(1);
  for (std::size_t n = 2; n <= 200; ++n) {
    const double theta = liu_layland_theta(n);
    EXPECT_LT(theta, previous);
    EXPECT_GT(theta, liu_layland_theta_limit());
    previous = theta;
  }
  EXPECT_NEAR(liu_layland_theta(100000), liu_layland_theta_limit(), 1e-5);
}

TEST(LiuLayland, EmptySetConvention) {
  EXPECT_DOUBLE_EQ(liu_layland_theta(0), 1.0);
}

// Footnote 1 of the paper: as N -> infinity, Theta = 69.3%,
// Theta/(1+Theta) = 40.9%, 2 Theta/(1+Theta) = 81.8%.
TEST(Thresholds, PaperFootnoteValues) {
  const std::size_t big = 1000000;
  EXPECT_NEAR(liu_layland_theta(big), 0.693, 5e-4);
  EXPECT_NEAR(light_task_threshold(big), 0.409, 5e-4);
  EXPECT_NEAR(rmts_bound_cap(big), 0.818, 1e-3);  // exact limit is 0.81878
}

TEST(Thresholds, CapIsTwiceLightThreshold) {
  for (std::size_t n = 1; n <= 64; ++n) {
    EXPECT_NEAR(rmts_bound_cap(n), 2.0 * light_task_threshold(n), 1e-12);
  }
}

TEST(LiuLaylandBound, EvaluatesOnTaskCount) {
  const LiuLaylandBound bound;
  const TaskSet set = TaskSet::from_pairs({{1, 10}, {1, 20}, {1, 30}});
  EXPECT_DOUBLE_EQ(bound.evaluate(set), liu_layland_theta(3));
  EXPECT_EQ(bound.name(), "LL");
}

TEST(HarmonicChains, FullyHarmonicIsOneChain) {
  const std::vector<Time> periods{1000, 2000, 4000, 16000};
  EXPECT_EQ(min_harmonic_chains(periods), 1u);
  EXPECT_EQ(greedy_harmonic_chains(periods), 1u);
}

TEST(HarmonicChains, PairwiseIndivisible) {
  const std::vector<Time> periods{7, 11, 13};
  EXPECT_EQ(min_harmonic_chains(periods), 3u);
}

TEST(HarmonicChains, MixedSet) {
  // {1000,2000} and {3000} -> 2 chains (1000 | 3000 allows {1000,3000} too,
  // but 2000 and 3000 cannot share, so the minimum is 2 either way).
  const std::vector<Time> periods{1000, 2000, 3000};
  EXPECT_EQ(min_harmonic_chains(periods), 2u);
}

TEST(HarmonicChains, DuplicatePeriodsAreOneChain) {
  const std::vector<Time> periods{500, 500, 500};
  EXPECT_EQ(min_harmonic_chains(periods), 1u);
}

TEST(HarmonicChains, EmptyInput) {
  EXPECT_EQ(min_harmonic_chains({}), 0u);
  EXPECT_EQ(greedy_harmonic_chains({}), 0u);
}

// The classic case where greedy is suboptimal: greedy puts 2 under 4's
// chain... construct {2, 3, 4, 6}: optimal {2,4},{3,6} = 2 chains.
TEST(HarmonicChains, MinimumBeatsOrEqualsGreedy) {
  const std::vector<Time> periods{2, 3, 4, 6};
  EXPECT_EQ(min_harmonic_chains(periods), 2u);
  EXPECT_GE(greedy_harmonic_chains(periods), 2u);
}

TEST(HarmonicChains, PartitionIsAValidChainCover) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Time> periods;
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < n; ++i) periods.push_back(rng.uniform_int(2, 48));
    const auto partition = min_harmonic_chain_partition(periods);
    // Covers every index exactly once.
    std::vector<int> seen(periods.size(), 0);
    for (const auto& chain : partition) {
      ASSERT_FALSE(chain.empty());
      for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
        // Chain property: consecutive elements divide.
        EXPECT_EQ(periods[chain[k + 1]] % periods[chain[k]], 0)
            << periods[chain[k]] << " " << periods[chain[k + 1]];
      }
      for (const std::size_t idx : chain) ++seen[idx];
    }
    for (const int count : seen) EXPECT_EQ(count, 1);
    EXPECT_EQ(partition.size(), min_harmonic_chains(periods));
    EXPECT_LE(min_harmonic_chains(periods), greedy_harmonic_chains(periods));
  }
}

/// Checks `partition` covers every index of `periods` exactly once with
/// chains whose consecutive periods divide, in non-decreasing order.
void expect_valid_cover(const std::vector<Time>& periods,
                        const std::vector<std::vector<std::size_t>>& partition) {
  std::vector<int> seen(periods.size(), 0);
  for (const auto& chain : partition) {
    ASSERT_FALSE(chain.empty());
    for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
      ASSERT_LE(periods[chain[k]], periods[chain[k + 1]]);
      ASSERT_EQ(periods[chain[k + 1]] % periods[chain[k]], 0)
          << periods[chain[k]] << " " << periods[chain[k + 1]];
    }
    for (const std::size_t idx : chain) ++seen[idx];
  }
  for (const int count : seen) ASSERT_EQ(count, 1);
}

/// The bitset matching against the Kuhn oracle: the same K, and a valid
/// cover of exactly K chains.
void expect_matches_oracle(const std::vector<Time>& periods) {
  const std::size_t k = min_harmonic_chains(periods);
  ASSERT_EQ(k, oracle::min_harmonic_chains(periods)) << ::testing::PrintToString(periods);
  const auto partition = min_harmonic_chain_partition(periods);
  EXPECT_EQ(partition.size(), k);
  expect_valid_cover(periods, partition);
}

TEST(HarmonicChains, MatchesOracleOnRandomPeriods) {
  Rng rng(2024);
  for (int trial = 0; trial < 1500; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 130));
    std::vector<Time> periods(n);
    const Time hi = trial % 3 == 0 ? 60 : 1'000'000;
    for (Time& p : periods) p = rng.log_uniform_time(1, hi);
    expect_matches_oracle(periods);
  }
}

TEST(HarmonicChains, MatchesOracleOnHarmonicDenseAndDuplicatePeriods) {
  Rng rng(2025);
  for (int trial = 0; trial < 1500; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 130));
    // Products of a few small primes: long divisibility chains and many
    // comparable pairs; a small pool makes duplicates common.
    const auto pool = static_cast<std::size_t>(rng.uniform_int(1, 40));
    std::vector<Time> values(pool);
    for (Time& v : values) {
      v = 1;
      for (int f = static_cast<int>(rng.uniform_int(0, 12)); f > 0; --f) {
        constexpr std::array<Time, 4> kPrimes{2, 3, 5, 7};
        v *= kPrimes[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      }
    }
    std::vector<Time> periods(n);
    for (Time& p : periods) {
      p = values[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool) - 1))];
    }
    expect_matches_oracle(periods);
  }
}

// Periods from just under 2^50 up to 2^62, past the range in which a
// double holds every integer: the matching must agree with the oracle
// there too, including quotients that sit one ulp from an integer.
TEST(HarmonicChains, MatchesOracleOnHugePeriods) {
  Rng rng(2026);
  constexpr Time kLimit = Time{1} << 50;
  for (int trial = 0; trial < 800; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 40));
    const Time base = trial % 2 == 0 ? kLimit : kLimit - 1;
    // Small divisors give quotients up to 2^50, the test's widest.
    std::vector<Time> periods{rng.uniform_int(1, 8)};
    for (std::size_t i = 0; i < n; ++i) {
      const Time unit = rng.uniform_int(1, 1 << 10);
      const Time multiple = rng.uniform_int(1, 64);
      Time p = std::min<Time>(base / unit * unit / 64 * multiple, kTimeInfinity);
      p = std::max<Time>(1, p + (rng.uniform() < 0.3 ? rng.uniform_int(-1, 1) : 0));
      periods.push_back(p);
    }
    if (trial % 2 == 0) {
      periods.push_back(kLimit + rng.uniform_int(0, 1'000'000));
      // Up to 2^62: multiples of a small divisor that a double cannot
      // hold exactly.
      periods.push_back(periods.front() *
                        (kLimit * rng.uniform_int(2, 1 << 9) + rng.uniform_int(0, 255)));
    }
    expect_matches_oracle(periods);
  }
  expect_matches_oracle({kLimit - 1, kLimit, 2 * kLimit, 3 * (kLimit - 1)});
  expect_matches_oracle({3, 3 * ((Time{1} << 58) + 1)});
  expect_matches_oracle({kTimeInfinity, kTimeInfinity, 1, 7});
}

TEST(HarmonicChainBoundValue, ClosedForm) {
  EXPECT_DOUBLE_EQ(harmonic_chain_bound_value(1), 1.0);
  EXPECT_NEAR(harmonic_chain_bound_value(2), 0.828427, 1e-6);
  EXPECT_NEAR(harmonic_chain_bound_value(3), 0.779763, 1e-6);
  EXPECT_DOUBLE_EQ(harmonic_chain_bound_value(0), 1.0);
}

// Section V instantiation: K=3 chains give 77.9% (< 81.8% cap, usable
// as-is); K=2 gives 82.8% (> cap, clamped by RM-TS).
TEST(HarmonicChainBoundValue, PaperSectionVExamples) {
  EXPECT_NEAR(harmonic_chain_bound_value(3), 0.779, 1e-3);
  EXPECT_NEAR(harmonic_chain_bound_value(2), 0.828, 1e-3);
  EXPECT_LT(harmonic_chain_bound_value(3), rmts_bound_cap(1000000));
  EXPECT_GT(harmonic_chain_bound_value(2), rmts_bound_cap(1000000));
}

TEST(HarmonicChainBound, HundredPercentForHarmonicSets) {
  const HarmonicChainBound bound;
  const TaskSet harmonic = TaskSet::from_pairs({{1, 1000}, {1, 2000}, {1, 4000}});
  EXPECT_DOUBLE_EQ(bound.evaluate(harmonic), 1.0);
}

TEST(ScalePeriods, MapsIntoTopOctave) {
  const std::vector<Time> periods{100, 300, 799, 800};
  const std::vector<Time> scaled = scale_periods(periods);
  for (const Time p : scaled) {
    EXPECT_GT(p, 400);
    EXPECT_LE(p, 800);
  }
  // 100 * 8 = 800; 300 * 2 = 600; 799 * 1; 800 * 1.
  const std::vector<Time> expected{800, 600, 799, 800};
  EXPECT_EQ(scaled, expected);
}

TEST(TBound, HarmonicByPowersOfTwoGives100Percent) {
  const TBound bound;
  const TaskSet set = TaskSet::from_pairs({{1, 1000}, {1, 2000}, {1, 8000}});
  EXPECT_NEAR(bound.evaluate(set), 1.0, 1e-12);
}

TEST(TBound, KnownTwoTaskValue) {
  // Periods {2,3}: scaled {2,3} -> 3/2 + 2*(2/3) - 2 = 0.8333...
  const TBound bound;
  const TaskSet set = TaskSet::from_pairs({{1, 2}, {1, 3}});
  EXPECT_NEAR(bound.evaluate(set), 3.0 / 2.0 + 4.0 / 3.0 - 2.0, 1e-12);
}

TEST(TBound, SingleTaskIs100Percent) {
  const TBound bound;
  EXPECT_DOUBLE_EQ(bound.evaluate(TaskSet::from_pairs({{1, 10}})), 1.0);
}

TEST(RBound, MatchesTBoundForTwoTasks) {
  const TBound t_bound;
  const RBound r_bound;
  const TaskSet set = TaskSet::from_pairs({{1, 2}, {1, 3}});
  EXPECT_NEAR(r_bound.evaluate(set), t_bound.evaluate(set), 1e-12);
}

TEST(RBound, ClosedFormEdges) {
  // r = 1: harmonic-like, 100%.  r = 2: degenerates to Theta(N-1).
  EXPECT_DOUBLE_EQ(r_bound_value(5, 1.0), 1.0);
  EXPECT_NEAR(r_bound_value(5, 2.0), liu_layland_theta(4), 1e-12);
}

TEST(RBound, NeverAboveTBound) {
  // The R-bound abstracts the T-bound by one parameter; it can only lose
  // precision.
  Rng rng(7);
  const TBound t_bound;
  const RBound r_bound;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::pair<Time, Time>> pairs;
    const int n = static_cast<int>(rng.uniform_int(2, 10));
    for (int i = 0; i < n; ++i) pairs.emplace_back(1, rng.uniform_int(10, 1000));
    const TaskSet set = TaskSet::from_pairs(pairs);
    EXPECT_LE(r_bound.evaluate(set), t_bound.evaluate(set) + 1e-9);
  }
}

TEST(AllBounds, WithinZeroOne) {
  Rng rng(17);
  const LiuLaylandBound ll;
  const HarmonicChainBound hc;
  const TBound tb;
  const RBound rb;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<Time, Time>> pairs;
    const int n = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < n; ++i) pairs.emplace_back(1, rng.uniform_int(5, 5000));
    const TaskSet set = TaskSet::from_pairs(pairs);
    const std::vector<const ParametricBound*> bounds{&ll, &hc, &tb, &rb};
    for (const ParametricBound* bound : bounds) {
      const double value = bound->evaluate(set);
      EXPECT_GT(value, 0.0) << bound->name();
      EXPECT_LE(value, 1.0 + 1e-12) << bound->name();
    }
  }
}

TEST(AllBounds, DominateOrEqualLiuLayland) {
  // HC, T and R bounds exploit period structure; they are never *worse*
  // than the structure-free Theta(N)... HC with K=N chains equals Theta(N),
  // and T/R degrade at most to Theta(N) as well.
  Rng rng(23);
  const LiuLaylandBound ll;
  const HarmonicChainBound hc;
  const TBound tb;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<Time, Time>> pairs;
    const int n = static_cast<int>(rng.uniform_int(2, 10));
    for (int i = 0; i < n; ++i) pairs.emplace_back(1, rng.uniform_int(10, 2000));
    const TaskSet set = TaskSet::from_pairs(pairs);
    EXPECT_GE(hc.evaluate(set), ll.evaluate(set) - 1e-9);
    EXPECT_GE(tb.evaluate(set), ll.evaluate(set) - 1e-9);
  }
}

// Deflatability (paper Lemma 1 precondition): all bounds here depend only
// on periods/count, so deflating WCETs never changes the value.
TEST(AllBounds, InvariantUnderWcetDeflation) {
  Rng rng(31);
  const LiuLaylandBound ll;
  const HarmonicChainBound hc;
  const TBound tb;
  const RBound rb;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::pair<Time, Time>> pairs;
    const int n = static_cast<int>(rng.uniform_int(1, 8));
    for (int i = 0; i < n; ++i) {
      const Time period = rng.uniform_int(10, 1000);
      pairs.emplace_back(rng.uniform_int(2, period), period);
    }
    const TaskSet original = TaskSet::from_pairs(pairs);
    const TaskSet deflated = original.scaled_wcets(0.5);
    const std::vector<const ParametricBound*> bounds{&ll, &hc, &tb, &rb};
    for (const ParametricBound* bound : bounds) {
      EXPECT_DOUBLE_EQ(bound->evaluate(original), bound->evaluate(deflated))
          << bound->name();
    }
  }
}

// Soundness as uniprocessor tests: any random task set with
// U(tau) <= Lambda(tau) must pass exact RTA.  This is the defining
// property of a utilization bound and the foundation the multiprocessor
// theorems build on.
TEST(AllBounds, SoundOnUniprocessorRms) {
  Rng rng(41);
  const LiuLaylandBound ll;
  const HarmonicChainBound hc;
  const TBound tb;
  const RBound rb;
  int checked = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::vector<std::pair<Time, Time>> pairs;
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < n; ++i) {
      const Time period = rng.uniform_int(10, 500);
      pairs.emplace_back(rng.uniform_int(1, period), period);
    }
    const TaskSet set = TaskSet::from_pairs(pairs);
    const std::vector<const ParametricBound*> bounds{&ll, &hc, &tb, &rb};
    for (const ParametricBound* bound : bounds) {
      if (set.total_utilization() <= bound->evaluate(set)) {
        ++checked;
        EXPECT_TRUE(rm_schedulable_uniprocessor(set))
            << bound->name() << " claimed schedulable:\n"
            << set.describe();
      }
    }
  }
  EXPECT_GT(checked, 200);  // the property must actually have been exercised
}


TEST(Burchard, PowersOfTwoPeriodsGive100Percent) {
  // All periods on the same log2 fraction => beta = 0 => 2^1 - 1 = 1.
  const BurchardBound bound;
  const TaskSet set = TaskSet::from_pairs({{1, 1024}, {1, 2048}, {1, 4096}});
  EXPECT_DOUBLE_EQ(log_period_spread(set), 0.0);
  EXPECT_DOUBLE_EQ(bound.evaluate(set), 1.0);
}

TEST(Burchard, WideSpreadFallsBackToLiuLayland) {
  EXPECT_DOUBLE_EQ(burchard_bound_value(4, 0.9), liu_layland_theta(4));
  EXPECT_DOUBLE_EQ(burchard_bound_value(2, 0.6), liu_layland_theta(2));
}

TEST(Burchard, ClosedFormMidRange) {
  // n=3, beta=0.25: 2(2^{0.125}-1) + 2^{0.75} - 1.
  const double expected =
      2.0 * (std::pow(2.0, 0.125) - 1.0) + std::pow(2.0, 0.75) - 1.0;
  EXPECT_NEAR(burchard_bound_value(3, 0.25), expected, 1e-12);
}

TEST(Burchard, MonotoneDecreasingInBeta) {
  double previous = burchard_bound_value(5, 0.0);
  for (double beta = 0.05; beta < 1.0 - 1.0 / 5.0; beta += 0.05) {
    const double value = burchard_bound_value(5, beta);
    EXPECT_LE(value, previous + 1e-12);
    previous = value;
  }
}

TEST(Burchard, NeverBelowLiuLayland) {
  Rng rng(53);
  const BurchardBound burchard;
  const LiuLaylandBound ll;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<std::pair<Time, Time>> pairs;
    const int n = static_cast<int>(rng.uniform_int(1, 10));
    for (int i = 0; i < n; ++i) pairs.emplace_back(1, rng.uniform_int(10, 5000));
    const TaskSet set = TaskSet::from_pairs(pairs);
    EXPECT_GE(burchard.evaluate(set), ll.evaluate(set) - 1e-9);
  }
}

TEST(Burchard, SoundOnUniprocessorRms) {
  Rng rng(59);
  const BurchardBound bound;
  int checked = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<std::pair<Time, Time>> pairs;
    const int n = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < n; ++i) {
      // Cluster periods within one octave-ish band so beta is often small
      // and the bound is often > Theta(N) -- that is the regime to check.
      const Time period = rng.uniform_int(64, 144);
      pairs.emplace_back(rng.uniform_int(1, period), period);
    }
    const TaskSet set = TaskSet::from_pairs(pairs);
    if (set.total_utilization() <= bound.evaluate(set)) {
      ++checked;
      EXPECT_TRUE(rm_schedulable_uniprocessor(set)) << set.describe();
    }
  }
  EXPECT_GT(checked, 300);
}

TEST(Burchard, DeflationInvariant) {
  const BurchardBound bound;
  const TaskSet set = TaskSet::from_pairs({{40, 100}, {60, 130}, {80, 190}});
  EXPECT_DOUBLE_EQ(bound.evaluate(set), bound.evaluate(set.scaled_wcets(0.25)));
}


TEST(BestOfBounds, TakesPointwiseMaximum) {
  const BestOfBounds best = BestOfBounds::all_known();
  const TaskSet harmonic = TaskSet::from_pairs({{1, 1000}, {1, 2000}, {1, 4000}});
  EXPECT_DOUBLE_EQ(best.evaluate(harmonic), 1.0);
  EXPECT_EQ(best.winner(harmonic).name(), "HC");
  // Pairwise-coprime spread-out periods: nothing beats Theta(N).
  const TaskSet plain = TaskSet::from_pairs({{1, 97}, {1, 551}, {1, 3343}});
  EXPECT_NEAR(best.evaluate(plain), liu_layland_theta(3), 0.05);
}

TEST(BestOfBounds, DominatesEveryConstituent) {
  Rng rng(61);
  const BestOfBounds best = BestOfBounds::all_known();
  const LiuLaylandBound ll;
  const HarmonicChainBound hc;
  const TBound tb;
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::pair<Time, Time>> pairs;
    const int n = static_cast<int>(rng.uniform_int(2, 10));
    for (int i = 0; i < n; ++i) pairs.emplace_back(1, rng.uniform_int(10, 4000));
    const TaskSet set = TaskSet::from_pairs(pairs);
    const double value = best.evaluate(set);
    EXPECT_GE(value, ll.evaluate(set));
    EXPECT_GE(value, hc.evaluate(set));
    EXPECT_GE(value, tb.evaluate(set));
  }
}

TEST(BestOfBounds, EmptyListRejected) {
  EXPECT_THROW(BestOfBounds({}), InvalidConfigError);
}

TEST(ConstantBound, FixedValueAndLabel) {
  const ConstantBound bound(0.75, "three-quarters");
  EXPECT_DOUBLE_EQ(bound.evaluate(TaskSet::from_pairs({{1, 2}})), 0.75);
  EXPECT_EQ(bound.name(), "three-quarters");
}

}  // namespace
}  // namespace rmts
