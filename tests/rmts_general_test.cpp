// RM-TS (Algorithms 3-4): pre-assignment mechanics, phase interplay,
// bound clamping, and equivalence with RM-TS/light on light workloads.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bounds/best_of.hpp"
#include "bounds/constant_bound.hpp"
#include "bounds/harmonic.hpp"
#include "bounds/ll_bound.hpp"
#include "common/rng.hpp"
#include "helpers.hpp"
#include "partition/rmts.hpp"
#include "partition/rmts_light.hpp"
#include "workload/generators.hpp"

namespace rmts {
namespace {

Rmts make_rmts() { return Rmts(std::make_shared<LiuLaylandBound>()); }

TEST(Rmts, NameAndCustomLabel) {
  EXPECT_EQ(make_rmts().name(), "RM-TS");
  const Rmts labelled(std::make_shared<HarmonicChainBound>(), "RM-TS[HC]");
  EXPECT_EQ(labelled.name(), "RM-TS[HC]");
}

TEST(Rmts, GuaranteedBoundClampsAtCap) {
  // A 100% constant bound is clamped to 2 Theta/(1+Theta) (Section V);
  // a 50% bound passes through.
  const TaskSet tasks = TaskSet::from_pairs({{1, 10}, {1, 20}, {1, 40}});
  const Rmts generous(std::make_shared<ConstantBound>(1.0));
  EXPECT_DOUBLE_EQ(generous.guaranteed_bound(tasks), rmts_bound_cap(3));
  const Rmts modest(std::make_shared<ConstantBound>(0.5));
  EXPECT_DOUBLE_EQ(modest.guaranteed_bound(tasks), 0.5);
}

/// A constant bound that counts its evaluations.
class CountingBound final : public ParametricBound {
 public:
  explicit CountingBound(double value) : value_(value) {}
  [[nodiscard]] double evaluate(const TaskSet&) const override {
    ++calls;
    return value_;
  }
  [[nodiscard]] std::string name() const override { return "counting"; }
  mutable int calls{0};

 private:
  double value_;
};

TEST(Rmts, PartitionEvaluatesTheBoundOnceAndTheOverloadNever) {
  // The server's admit path evaluates the bound once for its reply and
  // hands it to the overload; both entry points must agree.
  const auto bound = std::make_shared<CountingBound>(0.7);
  const Rmts rmts(bound);
  Rng rng(12);
  WorkloadConfig config;
  config.tasks = 16;
  config.processors = 4;
  config.normalized_utilization = 0.8;
  const TaskSet tasks = generate(rng, config);

  const Assignment evaluated = rmts.partition(tasks, 4);
  EXPECT_EQ(bound->calls, 1);
  const double lambda = rmts.guaranteed_bound(tasks);
  bound->calls = 0;
  const Assignment given = rmts.partition(tasks, 4, lambda);
  EXPECT_EQ(bound->calls, 0);
  ASSERT_EQ(evaluated.success, given.success);
  ASSERT_EQ(evaluated.processors.size(), given.processors.size());
  for (std::size_t q = 0; q < given.processors.size(); ++q) {
    EXPECT_EQ(evaluated.processors[q].subtasks, given.processors[q].subtasks);
  }
}

TEST(Rmts, NoHeavyTasksMatchesRmtsLightExactly) {
  // With no heavy task, phase 1 pre-assigns nothing and RM-TS degenerates
  // to RM-TS/light; the assignments must be bit-identical.
  Rng rng(11);
  WorkloadConfig config;
  config.tasks = 12;
  config.processors = 3;
  config.max_task_utilization = light_task_threshold(12);
  const Rmts rmts = make_rmts();
  const RmtsLight light;
  for (int trial = 0; trial < 40; ++trial) {
    config.normalized_utilization = 0.4 + 0.5 * rng.uniform();
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const Assignment a = rmts.partition(tasks, 3);
    const Assignment b = light.partition(tasks, 3);
    ASSERT_EQ(a.success, b.success);
    for (std::size_t q = 0; q < a.processors.size(); ++q) {
      EXPECT_EQ(a.processors[q].subtasks, b.processors[q].subtasks);
    }
  }
}

TEST(Rmts, PreAssignsQualifyingHeavyTask) {
  // One dominant heavy task with little lower-priority load: it satisfies
  // the pre-assign condition and must sit alone until phase 3 fills up.
  // Heavy tau_0 (U=0.8, highest priority), light low-priority tasks.
  const TaskSet tasks = TaskSet::from_pairs(
      {{800, 1000}, {200, 2000}, {200, 2000}, {200, 2000}});
  // suffix utilization after tau_0 = 0.3 <= (M_normal - 1) * lambda for
  // M = 2 and lambda ~ 0.75.
  const Assignment a = make_rmts().partition(tasks, 2);
  ASSERT_TRUE(a.success) << a.describe();
  testing::expect_valid_partition(tasks, a);
  // The heavy task must be unsplit (that is the point of pre-assignment).
  const auto chains = testing::chains_of(a);
  EXPECT_EQ(chains.at(0).size(), 1u);
}

TEST(Rmts, HeavyTaskFailingConditionIsSplitNormally) {
  // Heavy task with LOTS of lower-priority utilization behind it: the
  // pre-assign condition fails (suffix > (M-1)*lambda) and the heavy task
  // takes the normal splitting path.
  const TaskSet tasks = TaskSet::from_pairs({{500, 1000},
                                             {550, 1100},
                                             {560, 1120},
                                             {570, 1140},
                                             {580, 1160},
                                             {590, 1180}});
  // All tasks have U = 0.5 > light threshold (~0.42); total = 3.0 on M=4.
  const Assignment a = make_rmts().partition(tasks, 4);
  ASSERT_TRUE(a.success) << a.describe();
  testing::expect_valid_partition(tasks, a);
}

TEST(Rmts, NumberOfPreAssignedProcessorsBounded) {
  // Even with many heavy tasks, at most M processors are pre-assigned and
  // the algorithm never crashes; acceptance simply reflects feasibility.
  const TaskSet tasks = TaskSet::from_pairs({{500, 1000},
                                             {501, 1002},
                                             {502, 1004},
                                             {503, 1006},
                                             {504, 1008},
                                             {505, 1010}});
  const Assignment a = make_rmts().partition(tasks, 2);
  EXPECT_FALSE(a.success);  // U_M = 1.5, impossible
  EXPECT_EQ(a.processors.size(), 2u);
}

TEST(Rmts, SucceedsAboveSpaThresholdOnHeavySets) {
  // U_M = 0.9 with half-heavy tasks: far above Theta(N) (~0.70), yet the
  // exact-RTA admission still finds a partition for this concrete set.
  const TaskSet tasks = TaskSet::from_pairs(
      {{450, 1000}, {455, 1010}, {459, 1020}, {463, 1030},
       {467, 1040}, {472, 1050}, {476, 1060}, {481, 1070}});
  const Assignment a = make_rmts().partition(tasks, 4);
  ASSERT_TRUE(a.success) << a.describe();
  testing::expect_valid_partition(tasks, a);
}

TEST(Rmts, EmptyTaskSet) {
  EXPECT_TRUE(make_rmts().partition(TaskSet(), 3).success);
}

TEST(Rmts, RandomizedStructuralInvariantsWithHeavyTasks) {
  Rng rng(313);
  WorkloadConfig config;
  config.tasks = 16;
  config.processors = 4;
  config.max_task_utilization = 0.85;
  const Rmts rmts = make_rmts();
  int accepted = 0;
  for (int trial = 0; trial < 100; ++trial) {
    config.normalized_utilization = 0.5 + 0.4 * rng.uniform();
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const Assignment a = rmts.partition(tasks, config.processors);
    if (!a.success) continue;
    ++accepted;
    // Heavy pre-assigned tasks may end up with lower priority than later
    // bodies on their processor only if Lemma 11's premise fails; the
    // defensive implementation keeps deadlines sound either way, so check
    // everything except the body-top-priority lemma.
    testing::expect_valid_partition(tasks, a, /*check_rta=*/true,
                                    /*check_body_top_priority=*/false);
  }
  EXPECT_GT(accepted, 40);
}

TEST(Rmts, BodyTopPriorityHoldsOnNormalProcessors) {
  // Lemma 2 restricted to phase-2 processors: a body subtask hosted with
  // no pre-assigned task above it must be top priority.
  Rng rng(515);
  WorkloadConfig config;
  config.tasks = 12;
  config.processors = 3;
  config.max_task_utilization = light_task_threshold(12);
  const Rmts rmts = make_rmts();
  for (int trial = 0; trial < 50; ++trial) {
    config.normalized_utilization = 0.6 + 0.3 * rng.uniform();
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const Assignment a = rmts.partition(tasks, config.processors);
    if (!a.success) continue;
    // Light sets: no pre-assignment happens, so the lemma applies fully.
    testing::expect_valid_partition(tasks, a);
  }
}


TEST(Rmts, Phase3FillsLowestPriorityPreAssignedProcessorFirst) {
  // Two heavy tasks pre-assign (the second because nothing has lower
  // priority); the remaining light tasks must fill the LARGEST-index
  // pre-assigned processor (hosting the lowest-priority pre-assigned task)
  // first -- Algorithm 3 line 19.  A worst-fit or lowest-index pick would
  // put them on P0 instead (both processors hold utilization 0.5).
  const TaskSet tasks = TaskSet::from_pairs({
      {500, 1000},   // h0: heavy, highest priority -> pre-assigned to P0
      {100, 2000},   // l1
      {100, 2020},   // l2
      {2000, 4000},  // h1: heavy, lowest priority -> pre-assigned to P1
  });
  const Assignment a = make_rmts().partition(tasks, 2);
  ASSERT_TRUE(a.success) << a.describe();
  EXPECT_EQ(a.processors[0].subtasks.size(), 1u);  // h0 alone
  EXPECT_EQ(a.processors[1].subtasks.size(), 3u);  // h1 + both lights
  testing::expect_valid_partition(tasks, a, /*check_rta=*/true,
                                  /*check_body_top_priority=*/false);
}

TEST(Rmts, BestOfBoundsRaisesTheGuarantee) {
  const TaskSet harmonic = TaskSet::from_pairs(
      {{100, 1000}, {100, 2000}, {100, 4000}, {100, 8000}});
  const Rmts with_ll(std::make_shared<LiuLaylandBound>());
  const Rmts with_best(
      std::make_shared<BestOfBounds>(BestOfBounds::all_known()));
  EXPECT_NEAR(with_ll.guaranteed_bound(harmonic), liu_layland_theta(4), 1e-12);
  // HC gives 1.0, clamped at the Section V cap.
  EXPECT_NEAR(with_best.guaranteed_bound(harmonic), rmts_bound_cap(4), 1e-12);
}

TEST(Rmts, DeterministicAcrossRepeatedRuns) {
  Rng rng(717);
  WorkloadConfig config;
  config.tasks = 14;
  config.processors = 4;
  config.max_task_utilization = 0.7;
  config.normalized_utilization = 0.8;
  const Rmts algorithm = make_rmts();
  for (int trial = 0; trial < 10; ++trial) {
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const Assignment first = algorithm.partition(tasks, 4);
    const Assignment second = algorithm.partition(tasks, 4);
    ASSERT_EQ(first.success, second.success);
    for (std::size_t q = 0; q < first.processors.size(); ++q) {
      EXPECT_EQ(first.processors[q].subtasks, second.processors[q].subtasks);
    }
  }
}


TEST(Rmts, VeryHeavyTaskGetsDedicatedProcessor) {
  // Footnote 5: U = 0.95 exceeds every Lambda, so the task gets a sealed
  // processor of its own; the rest partitions normally.
  const TaskSet tasks = TaskSet::from_pairs(
      {{950, 1000}, {300, 2000}, {300, 2000}, {300, 2000}});
  const Assignment a = make_rmts().partition(tasks, 2);
  ASSERT_TRUE(a.success) << a.describe();
  const auto chains = testing::chains_of(a);
  EXPECT_EQ(chains.at(0).size(), 1u);  // unsplit
  // It sits alone.
  const std::size_t host = chains.at(0).front().processor;
  EXPECT_EQ(a.processors[host].subtasks.size(), 1u);
  testing::expect_valid_partition(tasks, a);
}

TEST(Rmts, MoreOverBoundTasksThanProcessorsFails) {
  const TaskSet tasks = TaskSet::from_pairs(
      {{950, 1000}, {951, 1001}, {952, 1002}});
  const Assignment a = make_rmts().partition(tasks, 2);
  EXPECT_FALSE(a.success);
  EXPECT_EQ(a.unassigned.size(), 1u);  // the third giant
}

TEST(Rmts, DedicatedProcessorIsSealed) {
  // Even a tiny extra task must not land on the dedicated processor;
  // with only one processor available for the rest, the tiny tasks share
  // the second one.
  const TaskSet tasks =
      TaskSet::from_pairs({{950, 1000}, {10, 2000}, {10, 2020}, {10, 2040}});
  const Assignment a = make_rmts().partition(tasks, 2);
  ASSERT_TRUE(a.success);
  std::size_t giant_host = 99;
  for (std::size_t q = 0; q < 2; ++q) {
    for (const Subtask& s : a.processors[q].subtasks) {
      if (s.task_id == 0) giant_host = q;
    }
  }
  ASSERT_NE(giant_host, 99u);
  EXPECT_EQ(a.processors[giant_host].subtasks.size(), 1u);
  EXPECT_EQ(a.processors[1 - giant_host].subtasks.size(), 3u);
}

}  // namespace
}  // namespace rmts
