// End-to-end integration: every algorithm's accepted partitions are
// structurally valid and run without deadline misses in the discrete-event
// simulator (paper Lemma 4), across randomized workloads with bounded
// hyperperiods.  This is the repo's ground-truth soundness gate.
#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <memory>

#include "bounds/harmonic.hpp"
#include "bounds/ll_bound.hpp"
#include "common/rng.hpp"
#include "helpers.hpp"
#include "partition/baselines.hpp"
#include "partition/rmts.hpp"
#include "partition/rmts_light.hpp"
#include "partition/spa.hpp"
#include "workload/generators.hpp"

namespace rmts {
namespace {

WorkloadConfig grid_workload(std::size_t tasks, std::size_t processors,
                             double max_task_utilization) {
  WorkloadConfig config;
  config.tasks = tasks;
  config.processors = processors;
  config.period_model = PeriodModel::kGrid;
  config.period_grid = small_hyperperiod_grid();
  config.max_task_utilization = max_task_utilization;
  return config;
}

// Accepted => simulation-clean, for the exact-RTA algorithms, on light and
// heavy mixes across a load sweep.
TEST(Integration, RmtsFamilyAcceptedImpliesNoMiss) {
  Rng rng(2012);
  const RmtsLight light;
  const Rmts rmts(std::make_shared<LiuLaylandBound>());
  int validated = 0;
  for (int trial = 0; trial < 120; ++trial) {
    WorkloadConfig config = grid_workload(12, 3, 0.8);
    config.normalized_utilization = 0.5 + 0.45 * (trial % 10) / 10.0;
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    for (const Partitioner* algorithm :
         std::initializer_list<const Partitioner*>{&light, &rmts}) {
      const Assignment a = algorithm->partition(tasks, config.processors);
      if (!a.success) continue;
      ++validated;
      testing::expect_valid_partition(tasks, a, /*check_rta=*/true,
                                      /*check_body_top_priority=*/false);
      testing::expect_simulation_clean(tasks, a);
    }
  }
  EXPECT_GT(validated, 60);
}

// SPA theorems at run time: SPA1 accepted partitions of LIGHT sets with
// U_M <= Theta are miss-free; same for SPA2 on arbitrary sets.
TEST(Integration, SpaAcceptedWithinTheoremPremisesImpliesNoMiss) {
  Rng rng(2010);
  const Spa1 spa1;
  const Spa2 spa2;
  int validated = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 12;
    const double theta = liu_layland_theta(n);

    WorkloadConfig light_config = grid_workload(n, 3, light_task_threshold(n));
    light_config.normalized_utilization = 0.3 + (theta - 0.31) * (trial % 10) / 10.0;
    Rng sample_a = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet light_set = generate(sample_a, light_config);
    if (light_set.normalized_utilization(3) <= theta) {
      const Assignment a = spa1.partition(light_set, 3);
      if (a.success) {
        ++validated;
        testing::expect_simulation_clean(light_set, a);
      }
    }

    WorkloadConfig any_config = grid_workload(n, 3, 0.9);
    any_config.normalized_utilization = light_config.normalized_utilization;
    Rng sample_b = rng.fork(static_cast<std::uint64_t>(trial) + 100000);
    const TaskSet any_set = generate(sample_b, any_config);
    if (any_set.normalized_utilization(3) <= theta) {
      const Assignment a = spa2.partition(any_set, 3);
      if (a.success) {
        ++validated;
        testing::expect_simulation_clean(any_set, a);
      }
    }
  }
  EXPECT_GT(validated, 100);
}

// Strict-partitioning baselines with exact RTA admission are sound too.
TEST(Integration, PartitionedRmAcceptedImpliesNoMiss) {
  Rng rng(1973);
  const PartitionedRm ff(FitPolicy::kFirstFit, TaskOrder::kDecreasingUtilization,
                         Admission::kExactRta);
  int validated = 0;
  for (int trial = 0; trial < 60; ++trial) {
    WorkloadConfig config = grid_workload(10, 3, 0.7);
    config.normalized_utilization = 0.4 + 0.4 * (trial % 6) / 6.0;
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const Assignment a = ff.partition(tasks, 3);
    if (!a.success) continue;
    ++validated;
    testing::expect_simulation_clean(tasks, a);
  }
  EXPECT_GT(validated, 25);
}

// The headline average-case claim (Section I): RM-TS accepts sets well
// above Theta(N) where SPA2 has already collapsed.
TEST(Integration, RmtsBeatsSpa2AboveTheta) {
  Rng rng(26);
  const Rmts rmts(std::make_shared<LiuLaylandBound>());
  const Spa2 spa2;
  WorkloadConfig config = grid_workload(16, 4, 0.4);
  config.normalized_utilization = 0.85;  // Theta(16) = 0.713
  int rmts_accepted = 0;
  int spa2_accepted = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    rmts_accepted += rmts.accepts(tasks, 4);
    spa2_accepted += spa2.accepts(tasks, 4);
  }
  EXPECT_EQ(spa2_accepted, 0);       // threshold admission cannot pass 0.85
  EXPECT_GT(rmts_accepted, 40);      // exact RTA sails through most sets
}

// Splitting earns real capacity: on the same workloads, semi-partitioning
// accepts at least as much as strict partitioning plus finds cases the
// bin-packer cannot place.
TEST(Integration, SplittingBeatsStrictPartitioningOnHeavySets) {
  Rng rng(27);
  const RmtsLight light;
  const PartitionedRm ff(FitPolicy::kFirstFit, TaskOrder::kDecreasingUtilization,
                         Admission::kExactRta);
  WorkloadConfig config = grid_workload(6, 4, 0.75);
  config.normalized_utilization = 0.72;
  int light_accepted = 0;
  int ff_accepted = 0;
  for (int trial = 0; trial < 80; ++trial) {
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    light_accepted += light.accepts(tasks, 4);
    ff_accepted += ff.accepts(tasks, 4);
  }
  EXPECT_GT(light_accepted, ff_accepted);
}

// Migration accounting: split tasks hop exactly (chain length - 1) times
// per completed job.
TEST(Integration, MigrationCountMatchesChainStructure) {
  const TaskSet tasks =
      TaskSet::from_pairs({{600, 1000}, {606, 1010}, {612, 1020}});
  const Assignment a = RmtsLight().partition(tasks, 2);
  ASSERT_TRUE(a.success);
  std::size_t hops = 0;
  for (const auto& [id, chain] : testing::chains_of(a)) {
    hops += chain.size() - 1;
  }
  ASSERT_GT(hops, 0u);
  SimConfig config;
  config.horizon = recommended_horizon(tasks, 20'000'000);
  const SimResult result = simulate(tasks, a, config);
  ASSERT_TRUE(result.schedulable);
  EXPECT_GT(result.migrations, 0u);
  EXPECT_EQ(result.migrations % hops, 0u);  // hops per hyper-periodic batch
}


// Analytical end-to-end bound dominates observation: for every accepted
// RM-TS partition and every task, the simulator's max observed response
// (tail completion - release) is at most the sum of the per-piece RTA
// responses.  This is the soundness behind experiment E12.
TEST(Integration, AnalyticalResponseBoundDominatesObservation) {
  Rng rng(1212);
  const Rmts algorithm(std::make_shared<LiuLaylandBound>());
  int tasks_checked = 0;
  for (int trial = 0; trial < 60; ++trial) {
    WorkloadConfig config = grid_workload(16, 4, 0.6);
    config.normalized_utilization = 0.55 + 0.4 * (trial % 10) / 10.0;
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const Assignment assignment = algorithm.partition(tasks, 4);
    if (!assignment.success) continue;

    std::map<TaskId, Time> bound;
    for (const auto& processor : assignment.processors) {
      const ProcessorRta rta = analyze_processor(processor.subtasks);
      ASSERT_TRUE(rta.schedulable);
      for (std::size_t i = 0; i < processor.subtasks.size(); ++i) {
        bound[processor.subtasks[i].task_id] += rta.response[i];
      }
    }

    SimConfig sim;
    sim.horizon = recommended_horizon(tasks, 1'000'000);
    const SimResult run = simulate(tasks, assignment, sim);
    ASSERT_TRUE(run.schedulable);
    for (std::size_t rank = 0; rank < tasks.size(); ++rank) {
      if (run.max_response[rank] == 0) continue;
      ++tasks_checked;
      EXPECT_LE(run.max_response[rank], bound.at(tasks[rank].id))
          << "tau_" << tasks[rank].id << " trial " << trial;
    }
  }
  EXPECT_GT(tasks_checked, 400);
}

// Parameterized sweep: every FP partitioner's accepted assignments are
// simulation-clean across a common randomized workload population.
//
// gtest lists each case of a parameterized suite with the parameter's raw
// bytes appended, and those bytes open with the label pointer.  Address
// randomization moves whole pages, so that pointer's low byte is fixed for
// a given binary, but it still shifts whenever code linked into the test
// resizes the string pool.  The labels therefore sit at fixed offsets in a
// 256-aligned block: the low byte, and with it the start of each listed
// case, is the same in every build.  The offsets are the ones the labels
// had when the case list was first recorded.
struct alignas(256) AlgorithmLabels {
  char lead[0x15];
  char rmts_light[11];
  char rmts_light_ff[14];
  char rmts_light_coarse[18];
  char rmts_ll[8];
  char rmts_hc[8];
  char prm_bfd[8];
  char prm_wf_rm[10];
};
constexpr AlgorithmLabels kAlgorithmLabels{
    {},        "rmts_light", "rmts_light_ff", "rmts_light_coarse",
    "rmts_ll", "rmts_hc",    "prm_bfd",       "prm_wf_rm"};
static_assert(offsetof(AlgorithmLabels, rmts_light) == 0x15);
static_assert(offsetof(AlgorithmLabels, rmts_ll) == 0x40);
static_assert(offsetof(AlgorithmLabels, rmts_hc) == 0x48);
static_assert(offsetof(AlgorithmLabels, prm_bfd) == 0x50);
static_assert(offsetof(AlgorithmLabels, prm_wf_rm) == 0x58);

struct AlgorithmCase {
  const char* label;
  std::shared_ptr<const Partitioner> (*make)();
  double max_task_utilization;
};

std::shared_ptr<const Partitioner> make_light() {
  return std::make_shared<RmtsLight>();
}
std::shared_ptr<const Partitioner> make_light_ff() {
  return std::make_shared<RmtsLight>(SelectionPolicy::kFirstFit);
}
std::shared_ptr<const Partitioner> make_light_coarse() {
  return std::make_shared<RmtsLight>(SelectionPolicy::kWorstFit, 50);
}
std::shared_ptr<const Partitioner> make_rmts_ll() {
  return std::make_shared<Rmts>(std::make_shared<LiuLaylandBound>());
}
std::shared_ptr<const Partitioner> make_rmts_hc() {
  return std::make_shared<Rmts>(std::make_shared<HarmonicChainBound>());
}
std::shared_ptr<const Partitioner> make_prm_bf() {
  return std::make_shared<PartitionedRm>(FitPolicy::kBestFit,
                                         TaskOrder::kDecreasingUtilization,
                                         Admission::kExactRta);
}
std::shared_ptr<const Partitioner> make_prm_wf_rm() {
  return std::make_shared<PartitionedRm>(FitPolicy::kWorstFit,
                                         TaskOrder::kRateMonotonic,
                                         Admission::kExactRta);
}

class FpSoundnessTest : public ::testing::TestWithParam<AlgorithmCase> {};

TEST_P(FpSoundnessTest, AcceptedImpliesSimulationClean) {
  const AlgorithmCase& param = GetParam();
  const auto algorithm = param.make();
  Rng rng(4242);
  int validated = 0;
  for (int trial = 0; trial < 50; ++trial) {
    WorkloadConfig config = grid_workload(12, 3, param.max_task_utilization);
    config.normalized_utilization = 0.5 + 0.45 * (trial % 10) / 10.0;
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const Assignment a = algorithm->partition(tasks, 3);
    if (!a.success) continue;
    ++validated;
    testing::expect_simulation_clean(tasks, a);
  }
  EXPECT_GT(validated, 15) << param.label;
}

INSTANTIATE_TEST_SUITE_P(
    Algorithms, FpSoundnessTest,
    ::testing::Values(
        AlgorithmCase{kAlgorithmLabels.rmts_light, &make_light, 0.8},
        AlgorithmCase{kAlgorithmLabels.rmts_light_ff, &make_light_ff, 0.8},
        AlgorithmCase{kAlgorithmLabels.rmts_light_coarse, &make_light_coarse,
                      0.8},
        AlgorithmCase{kAlgorithmLabels.rmts_ll, &make_rmts_ll, 0.85},
        AlgorithmCase{kAlgorithmLabels.rmts_hc, &make_rmts_hc, 0.85},
        AlgorithmCase{kAlgorithmLabels.prm_bfd, &make_prm_bf, 0.7},
        AlgorithmCase{kAlgorithmLabels.prm_wf_rm, &make_prm_wf_rm, 0.7}),
    [](const ::testing::TestParamInfo<AlgorithmCase>& param_info) {
      return param_info.param.label;
    });

}  // namespace
}  // namespace rmts
