// Exact response-time analysis: literature examples, boundary cases, and
// property-style randomized cross-checks against time-demand analysis.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "oracle/max_split_points.hpp"
#include "rta/rta.hpp"

namespace rmts {
namespace {

std::vector<Subtask> as_subtasks(const TaskSet& set) {
  std::vector<Subtask> subtasks;
  for (std::size_t rank = 0; rank < set.size(); ++rank) {
    subtasks.push_back(whole_subtask(set[rank], rank));
  }
  return subtasks;
}

// Liu & Layland's running example: (20,100), (40,150), (100,350).
TEST(Rta, LiuLaylandExampleResponseTimes) {
  const TaskSet set = TaskSet::from_pairs({{20, 100}, {40, 150}, {100, 350}});
  const auto subtasks = as_subtasks(set);
  const ProcessorRta rta = analyze_processor(subtasks);
  ASSERT_TRUE(rta.schedulable);
  EXPECT_EQ(rta.response[0], 20);
  EXPECT_EQ(rta.response[1], 60);
  EXPECT_EQ(rta.response[2], 240);
}

// Classic over-utilized pair: (26,70), (62,100); U = 0.991, R_2 = 114 > 100.
TEST(Rta, OverloadedPairDetected) {
  const TaskSet set = TaskSet::from_pairs({{26, 70}, {62, 100}});
  const auto subtasks = as_subtasks(set);
  const ProcessorRta rta = analyze_processor(subtasks);
  EXPECT_FALSE(rta.schedulable);
  EXPECT_EQ(rta.first_miss, 1u);
}

// A fully harmonic set at exactly 100% utilization is schedulable.
TEST(Rta, HarmonicFullUtilization) {
  const TaskSet set = TaskSet::from_pairs({{1, 2}, {1, 4}, {2, 8}});
  EXPECT_TRUE(rm_schedulable_uniprocessor(set));
  const ProcessorRta rta = analyze_processor(as_subtasks(set));
  EXPECT_EQ(rta.response[2], 8);  // finishes exactly at its deadline
}

TEST(Rta, HighestPriorityResponseIsWcet) {
  const RtaOutcome outcome = response_time(17, 100, {});
  EXPECT_TRUE(outcome.schedulable);
  EXPECT_EQ(outcome.response, 17);
}

TEST(Rta, WcetBeyondDeadlineFailsImmediately) {
  const RtaOutcome outcome = response_time(101, 100, {});
  EXPECT_FALSE(outcome.schedulable);
}

TEST(Rta, SyntheticDeadlineShorterThanPeriodIsRespected) {
  // Same interference, tighter deadline: schedulable at D=60, not at D=59.
  const TaskSet set = TaskSet::from_pairs({{20, 100}});
  const auto hp = as_subtasks(set);
  EXPECT_TRUE(response_time(40, 60, hp).schedulable);
  EXPECT_FALSE(response_time(41, 60, hp).schedulable);  // R = 61 > 60
}

TEST(Rta, ResponseMonotoneInInterferenceWcet) {
  for (Time c = 1; c <= 50; ++c) {
    const Subtask hp{0, 0, 0, c, 100, 100, SubtaskKind::kWhole};
    const Subtask hp_prev{0, 0, 0, c - 1, 100, 100, SubtaskKind::kWhole};
    const RtaOutcome with_c = response_time(30, 1000, {&hp, 1});
    const RtaOutcome with_less = response_time(30, 1000, {&hp_prev, 1});
    ASSERT_TRUE(with_c.schedulable);
    EXPECT_GE(with_c.response, with_less.response);
  }
}

TEST(Rta, EmptyProcessorSchedulable) {
  EXPECT_TRUE(processor_schedulable({}));
}

TEST(Rta, FirstMissIndexReported) {
  // Highest-priority task hogs the processor; the second one misses.
  const TaskSet set = TaskSet::from_pairs({{90, 100}, {20, 105}});
  const ProcessorRta rta = analyze_processor(as_subtasks(set));
  EXPECT_FALSE(rta.schedulable);
  EXPECT_EQ(rta.first_miss, 1u);
  EXPECT_EQ(rta.response[0], 90);
}

TEST(SchedulingPoints, ContainsDeadlineAndArrivals) {
  const TaskSet set = TaskSet::from_pairs({{5, 30}, {5, 45}});
  const auto hp = as_subtasks(set);
  const std::vector<Time> points = oracle::scheduling_points(100, hp);
  // Multiples of 30 and 45 below 100, plus 100 itself.
  const std::vector<Time> expected{30, 45, 60, 90, 100};
  EXPECT_EQ(points, expected);
}

TEST(SchedulingPoints, DeduplicatesCoincidingArrivals) {
  const TaskSet set = TaskSet::from_pairs({{5, 30}, {5, 60}});
  const auto hp = as_subtasks(set);
  const std::vector<Time> points = oracle::scheduling_points(90, hp);
  const std::vector<Time> expected{30, 60, 90};
  EXPECT_EQ(points, expected);
}

TEST(InterferenceAt, CeilingSemantics) {
  const TaskSet set = TaskSet::from_pairs({{10, 100}});
  const auto hp = as_subtasks(set);
  EXPECT_EQ(oracle::interference_at(1, hp), std::optional<Time>{10});
  EXPECT_EQ(oracle::interference_at(100, hp), std::optional<Time>{10});
  EXPECT_EQ(oracle::interference_at(101, hp), std::optional<Time>{20});
}

TEST(InterferenceAt, OverflowIsTaggedNotSaturated) {
  // At overflow scale the demand is reported as nullopt, not as a
  // kTimeInfinity value a caller could accidentally keep computing with
  // (wcet + kTimeInfinity is signed-overflow UB).
  const Time huge = kTimeInfinity / 2;
  const std::vector<Subtask> hp{
      {0, 0, 0, huge, 3, huge, SubtaskKind::kWhole}};
  EXPECT_EQ(oracle::interference_at(huge, hp), std::nullopt);
  EXPECT_EQ(oracle::interference_at(3, hp), std::optional<Time>{huge});
}

// Cross-check: RTA schedulability == time-demand analysis over the testing
// set, on randomized workloads.  This ties the two exact formulations
// (fixed point vs scheduling points) together; MaxSplit relies on both.
TEST(Rta, AgreesWithTimeDemandAnalysis) {
  Rng rng(123);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 6));
    std::vector<std::pair<Time, Time>> pairs;
    for (std::size_t i = 0; i < n; ++i) {
      const Time period = rng.uniform_int(20, 400);
      const Time wcet = rng.uniform_int(1, period / 2);
      pairs.emplace_back(wcet, period);
    }
    const TaskSet set = TaskSet::from_pairs(pairs);
    const auto subtasks = as_subtasks(set);
    for (std::size_t i = 0; i < subtasks.size(); ++i) {
      const auto hp = std::span<const Subtask>(subtasks).first(i);
      const RtaOutcome rta =
          response_time(subtasks[i].wcet, subtasks[i].deadline, hp);
      bool tda = false;
      for (const Time t :
           oracle::scheduling_points(subtasks[i].deadline, hp)) {
        const auto demand = oracle::interference_at(t, hp);
        if (demand && subtasks[i].wcet + *demand <= t) {
          tda = true;
          break;
        }
      }
      ASSERT_EQ(rta.schedulable, tda)
          << "trial " << trial << " task " << i << "\n"
          << set.describe();
      if (!rta.schedulable) break;  // analyze only up to the first miss
    }
  }
}

// Regression: overflow-scale parameters must degrade to "not schedulable",
// not to signed-overflow UB.  The seeded one-job sum alone exceeds int64
// here; the seed implementation wrapped negative and could report a bogus
// fixed point.
TEST(Rta, OverflowScaleParametersReportUnschedulable) {
  const Time huge = kTimeInfinity / 2;
  const Subtask hp{0, 0, 0, huge, huge + 1, huge + 1, SubtaskKind::kWhole};
  // wcet + one interfering job = kTimeInfinity/2 + kTimeInfinity/2 + 2 > max.
  const RtaOutcome seed_overflow =
      response_time(huge + 2, kTimeInfinity - 1, {&hp, 1});
  EXPECT_FALSE(seed_overflow.schedulable);
  EXPECT_EQ(seed_overflow.response, kTimeInfinity);
}

// Regression: overflow inside the interference sum (many heavy interferers
// whose ceil(r/T)*C terms overflow before any iterate exceeds the deadline).
TEST(Rta, OverflowInInterferenceSumReportsUnschedulable) {
  const Time quarter = kTimeInfinity / 4;
  const std::vector<Subtask> hp{
      {0, 0, 0, quarter, quarter, quarter, SubtaskKind::kWhole},
      {1, 1, 0, quarter, quarter + 1, quarter + 1, SubtaskKind::kWhole},
      {2, 2, 0, quarter, quarter + 2, quarter + 2, SubtaskKind::kWhole}};
  const RtaOutcome outcome = response_time(quarter, kTimeInfinity - 1, hp);
  EXPECT_FALSE(outcome.schedulable);
}

// Near-overflow parameters that *are* schedulable must stay exact: the
// checked path must not reject representable fixed points.
TEST(Rta, NearOverflowSchedulableStaysExact) {
  const Time big = kTimeInfinity / 4;
  const Subtask hp{0, 0, 0, big, kTimeInfinity - 1, kTimeInfinity - 1,
                   SubtaskKind::kWhole};
  const RtaOutcome outcome = response_time(big, kTimeInfinity - 1, {&hp, 1});
  ASSERT_TRUE(outcome.schedulable);
  EXPECT_EQ(outcome.response, 2 * big);
}

// Seeded iteration: any valid lower-bound seed converges to the same fixed
// point as the unseeded run, and the extra-interferer overload equals
// analysis over the materialized set.
TEST(Rta, SeededAndExtraVariantsMatchBaseline) {
  const TaskSet set = TaskSet::from_pairs({{20, 100}, {40, 150}});
  const auto hp = as_subtasks(set);
  const RtaOutcome base = response_time(100, 350, hp);
  ASSERT_TRUE(base.schedulable);
  for (const Time seed : {Time{0}, Time{100}, base.response - 1, base.response}) {
    EXPECT_EQ(response_time_seeded(100, 350, hp, seed).response, base.response);
  }
  const Subtask extra{2, 7, 0, 40, 150, 150, SubtaskKind::kWhole};
  const std::vector<Subtask> first(hp.begin(), hp.begin() + 1);
  const RtaOutcome with = response_time_with(100, 350, first, extra, 60);
  EXPECT_EQ(with.schedulable, base.schedulable);
  EXPECT_EQ(with.response, base.response);
}

// ceil_div must be exact for numerators near kTimeInfinity (the textbook
// (n + d - 1) / d form overflowed there).
TEST(Rta, CeilDivNearInfinity) {
  EXPECT_EQ(ceil_div(kTimeInfinity, kTimeInfinity), 1);
  EXPECT_EQ(ceil_div(kTimeInfinity, 2), kTimeInfinity / 2 + 1);
  EXPECT_EQ(ceil_div(kTimeInfinity - 1, kTimeInfinity), 1);
  EXPECT_EQ(ceil_div(0, kTimeInfinity), 0);
}

// The fixed point, when it exists, is the *least* solution: no smaller t
// satisfies wcet + interference(t) <= t.
TEST(Rta, FixedPointIsMinimal) {
  Rng rng(321);
  for (int trial = 0; trial < 200; ++trial) {
    const Time period_a = rng.uniform_int(10, 60);
    const Time period_b = rng.uniform_int(10, 60);
    const std::vector<Subtask> hp{
        {0, 0, 0, rng.uniform_int(1, period_a / 2), period_a, period_a,
         SubtaskKind::kWhole},
        {1, 1, 0, rng.uniform_int(1, period_b / 2), period_b, period_b,
         SubtaskKind::kWhole}};
    const Time wcet = rng.uniform_int(1, 20);
    const RtaOutcome outcome = response_time(wcet, 2000, hp);
    if (!outcome.schedulable) continue;
    EXPECT_EQ(
        wcet + oracle::interference_at(outcome.response, hp).value(),
        outcome.response);
    for (Time t = std::max<Time>(1, outcome.response - 25); t < outcome.response; ++t) {
      EXPECT_GT(wcet + oracle::interference_at(t, hp).value(), t);
    }
  }
}

}  // namespace
}  // namespace rmts
