// The paper's theorems as randomized property tests.  Each test generates
// workloads satisfying a theorem's premise and requires the corresponding
// algorithm to accept (and, spot-checked, to run miss-free).
//
// A small margin (kMargin) below each bound absorbs the two quantization
// effects of the integer-tick implementation: WCETs are rounded to ticks by
// the generator, and MaxSplit leaves bottlenecks at 1-tick granularity.
// With periods >= 10^3 ticks both effects are < 0.1% per processor.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>

#include "bounds/best_of.hpp"
#include "bounds/burchard.hpp"
#include "bounds/harmonic.hpp"
#include "bounds/ll_bound.hpp"
#include "bounds/scaled_periods.hpp"
#include "common/rng.hpp"
#include "helpers.hpp"
#include "partition/rmts.hpp"
#include "partition/rmts_light.hpp"
#include "workload/generators.hpp"

namespace rmts {
namespace {

constexpr double kMargin = 0.01;

// ---- Theorem 8: RM-TS/light achieves any D-PUB for light task sets -----

// Case labels at fixed offsets in a 256-aligned block, so the start of each
// case's listed name (which gtest follows with the parameter's raw bytes,
// label pointer first) does not move between builds; see FpSoundnessTest
// in integration_test.cpp.
struct alignas(256) Theorem8Labels {
  char lead[1];
  char harmonic[9];
  char chains2[8];
  char chains3[8];
  char log_uniform[12];
};
constexpr Theorem8Labels kTheorem8Labels{{}, "harmonic", "chains2", "chains3",
                                         "log_uniform"};
static_assert(offsetof(Theorem8Labels, harmonic) == 0x01);
static_assert(offsetof(Theorem8Labels, chains2) == 0x0A);
static_assert(offsetof(Theorem8Labels, chains3) == 0x12);

struct Theorem8Case {
  const char* label;
  PeriodModel period_model;
  std::size_t harmonic_chains;  // only for kHarmonicChains
};

class Theorem8Test : public ::testing::TestWithParam<Theorem8Case> {};

TEST_P(Theorem8Test, LightSetsWithinBoundAlwaysAccepted) {
  const Theorem8Case& param = GetParam();
  Rng rng(8008);
  const RmtsLight algorithm;
  const LiuLaylandBound ll;
  const HarmonicChainBound hc;
  const TBound tb;
  const RBound rb;
  const BurchardBound bb;
  const std::vector<const ParametricBound*> bounds{&ll, &hc, &tb, &rb, &bb};

  const std::size_t m = 4;
  const std::size_t n = 16;
  int exercised = 0;
  for (int trial = 0; trial < 200; ++trial) {
    WorkloadConfig config;
    config.tasks = n;
    config.processors = m;
    config.max_task_utilization = light_task_threshold(n);
    config.period_model = param.period_model;
    config.harmonic_chains = param.harmonic_chains;
    // Sweep the load across the interesting band.
    config.normalized_utilization = 0.55 + 0.44 * (trial % 20) / 20.0;
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const double u_m = tasks.normalized_utilization(m);

    // The theorem promises acceptance whenever U_M <= Lambda(tau) for ANY
    // D-PUB; the strongest instance is the max over the implemented ones.
    double lambda = 0.0;
    for (const ParametricBound* bound : bounds) {
      lambda = std::max(lambda, bound->evaluate(tasks));
    }
    if (u_m > lambda - kMargin) continue;
    ++exercised;
    const Assignment a = algorithm.partition(tasks, m);
    EXPECT_TRUE(a.success) << param.label << " trial " << trial << " U_M=" << u_m
                           << " Lambda=" << lambda << "\n"
                           << tasks.describe();
  }
  EXPECT_GT(exercised, 30) << param.label;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, Theorem8Test,
    ::testing::Values(
        Theorem8Case{kTheorem8Labels.log_uniform, PeriodModel::kLogUniform, 0},
        Theorem8Case{kTheorem8Labels.harmonic, PeriodModel::kHarmonic, 0},
        Theorem8Case{kTheorem8Labels.chains2, PeriodModel::kHarmonicChains, 2},
        Theorem8Case{kTheorem8Labels.chains3, PeriodModel::kHarmonicChains, 3}),
    [](const ::testing::TestParamInfo<Theorem8Case>& param_info) {
      return param_info.param.label;
    });

// Section IV instantiation: a light harmonic task set is schedulable up to
// U_M = 100%.  (The single strongest statement in the paper.)
TEST(Theorem8, HarmonicLightSetsAcceptedNearFullUtilization) {
  Rng rng(100100);
  const RmtsLight algorithm;
  int exercised = 0;
  for (int trial = 0; trial < 100; ++trial) {
    WorkloadConfig config;
    config.tasks = 16;
    config.processors = 4;
    config.period_model = PeriodModel::kHarmonic;
    config.max_task_utilization = light_task_threshold(16);
    config.normalized_utilization = 0.98;
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    ASSERT_TRUE(tasks.is_harmonic());
    if (tasks.normalized_utilization(4) > 1.0 - kMargin) continue;
    ++exercised;
    EXPECT_TRUE(algorithm.accepts(tasks, 4)) << tasks.describe();
  }
  EXPECT_GT(exercised, 80);
}

// ---- Section V: RM-TS achieves min(Lambda, 2Theta/(1+Theta)) for ANY set

TEST(RmtsTheorem, AnySetWithinClampedBoundAccepted) {
  Rng rng(5005);
  const Rmts algorithm(std::make_shared<LiuLaylandBound>());
  const std::size_t m = 4;
  const std::size_t n = 16;
  int exercised = 0;
  for (int trial = 0; trial < 300; ++trial) {
    WorkloadConfig config;
    config.tasks = n;
    config.processors = m;
    // Heavy tasks allowed up to the bound itself (the paper's standing
    // assumption: every U_i <= Lambda(tau)).
    config.max_task_utilization = 0.65;
    config.normalized_utilization = 0.45 + 0.35 * (trial % 20) / 20.0;
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const double lambda = algorithm.guaranteed_bound(tasks);
    ASSERT_LE(tasks.max_utilization(), lambda);
    if (tasks.normalized_utilization(m) > lambda - kMargin) continue;
    ++exercised;
    EXPECT_TRUE(algorithm.accepts(tasks, m))
        << "U_M=" << tasks.normalized_utilization(m) << " lambda=" << lambda
        << "\n"
        << tasks.describe();
  }
  EXPECT_GT(exercised, 100);
}

// Section V instantiation with the harmonic-chain bound: K = 3 chains give
// a guaranteed 77.9% for arbitrary (not necessarily light) task sets.
TEST(RmtsTheorem, ThreeChainSetsAcceptedUpTo779) {
  Rng rng(779779);
  const Rmts algorithm(std::make_shared<HarmonicChainBound>());
  int exercised = 0;
  for (int trial = 0; trial < 150; ++trial) {
    WorkloadConfig config;
    config.tasks = 12;
    config.processors = 4;
    config.period_model = PeriodModel::kHarmonicChains;
    config.harmonic_chains = 3;
    config.max_task_utilization = 0.7;
    config.normalized_utilization = 0.5 + 0.27 * (trial % 15) / 15.0;
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const double lambda = algorithm.guaranteed_bound(tasks);
    EXPECT_NEAR(lambda, harmonic_chain_bound_value(3), 1e-9);
    if (tasks.normalized_utilization(4) > lambda - kMargin) continue;
    ++exercised;
    EXPECT_TRUE(algorithm.accepts(tasks, 4)) << tasks.describe();
  }
  EXPECT_GT(exercised, 60);
}


// With phase 0 (dedicated processors, footnote 5), the RM-TS bound holds
// without ANY per-task utilization assumption.
TEST(RmtsTheorem, HoldsWithoutPerTaskUtilizationAssumption) {
  Rng rng(5050);
  const Rmts algorithm(std::make_shared<LiuLaylandBound>());
  const std::size_t m = 4;
  int exercised = 0;
  for (int trial = 0; trial < 200; ++trial) {
    WorkloadConfig config;
    config.tasks = 16;
    config.processors = m;
    config.max_task_utilization = 0.95;  // tasks above Lambda allowed
    config.normalized_utilization = 0.4 + 0.3 * (trial % 20) / 20.0;
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const double lambda = algorithm.guaranteed_bound(tasks);
    if (tasks.normalized_utilization(m) > lambda - kMargin) continue;
    ++exercised;
    EXPECT_TRUE(algorithm.accepts(tasks, m))
        << "U_M=" << tasks.normalized_utilization(m) << " lambda=" << lambda
        << "\n" << tasks.describe();
  }
  EXPECT_GT(exercised, 100);
}

// The accepted-at-premise partitions are also miss-free in simulation
// (Theorem premise -> acceptance -> Lemma 4 -> clean run), spot-checked on
// bounded-hyperperiod workloads.
TEST(RmtsTheorem, PremiseSatisfyingPartitionsRunClean) {
  Rng rng(606);
  const Rmts algorithm(std::make_shared<LiuLaylandBound>());
  int validated = 0;
  for (int trial = 0; trial < 40; ++trial) {
    WorkloadConfig config;
    config.tasks = 12;
    config.processors = 3;
    config.period_model = PeriodModel::kGrid;
    config.period_grid = small_hyperperiod_grid();
    config.max_task_utilization = 0.6;
    config.normalized_utilization = 0.65;
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    if (tasks.normalized_utilization(3) >
        algorithm.guaranteed_bound(tasks) - kMargin) {
      continue;
    }
    const Assignment a = algorithm.partition(tasks, 3);
    ASSERT_TRUE(a.success);
    ++validated;
    testing::expect_simulation_clean(tasks, a);
  }
  EXPECT_GT(validated, 20);
}

// Average case far above worst case (the paper's second contribution):
// at U_M halfway between Theta(N) and 1, RM-TS still accepts a large
// majority of light task sets.
TEST(AverageCase, RmtsLightWellAboveWorstCaseBound) {
  Rng rng(888);
  const RmtsLight algorithm;
  WorkloadConfig config;
  config.tasks = 16;
  config.processors = 4;
  config.max_task_utilization = light_task_threshold(16);
  config.normalized_utilization = 0.85;  // Theta(16) ~= 0.713
  int accepted = 0;
  const int trials = 100;
  for (int trial = 0; trial < trials; ++trial) {
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    accepted += algorithm.accepts(generate(sample, config), 4);
  }
  EXPECT_GT(accepted, trials * 6 / 10);
}

}  // namespace
}  // namespace rmts
