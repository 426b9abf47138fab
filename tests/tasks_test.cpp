// Unit tests for the task model: validation, RM ordering, utilization
// accounting, harmonicity, scaling, and subtask construction.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hpp"
#include "tasks/subtask.hpp"
#include "tasks/task_set.hpp"

namespace rmts {
namespace {

TEST(Task, Utilization) {
  const Task task{25, 100, 0};
  EXPECT_DOUBLE_EQ(task.utilization(), 0.25);
}

TEST(TaskSet, SortsByPeriodThenId) {
  const TaskSet set({Task{1, 300, 0}, Task{1, 100, 1}, Task{1, 200, 2}});
  EXPECT_EQ(set[0].period, 100);
  EXPECT_EQ(set[1].period, 200);
  EXPECT_EQ(set[2].period, 300);
}

TEST(TaskSet, TieBrokenById) {
  const TaskSet set({Task{1, 100, 5}, Task{1, 100, 2}});
  EXPECT_EQ(set[0].id, 2u);
  EXPECT_EQ(set[1].id, 5u);
}

TEST(TaskSet, FromPairsAssignsIdsInInputOrder) {
  const TaskSet set = TaskSet::from_pairs({{10, 200}, {10, 100}});
  EXPECT_EQ(set[0].id, 1u);  // period 100 sorts first, has id 1
  EXPECT_EQ(set[1].id, 0u);
}

TEST(TaskSet, RejectsNonPositivePeriod) {
  EXPECT_THROW(TaskSet({Task{1, 0, 0}}), InvalidTaskError);
  EXPECT_THROW(TaskSet({Task{1, -5, 0}}), InvalidTaskError);
}

TEST(TaskSet, RejectsNonPositiveWcet) {
  EXPECT_THROW(TaskSet({Task{0, 10, 0}}), InvalidTaskError);
  EXPECT_THROW(TaskSet({Task{-1, 10, 0}}), InvalidTaskError);
}

TEST(TaskSet, RejectsOverUtilizedTask) {
  EXPECT_THROW(TaskSet({Task{11, 10, 0}}), InvalidTaskError);
}

TEST(TaskSet, RejectsDuplicateIds) {
  EXPECT_THROW(TaskSet({Task{1, 10, 7}, Task{1, 20, 7}}), InvalidTaskError);
}

/// The message TaskSet's validation throws for `tasks`, or "" if none.
std::string validation_error(const std::vector<Task>& tasks) {
  try {
    const TaskSet set(tasks);
  } catch (const InvalidTaskError& error) {
    return error.what();
  }
  return "";
}

// Duplicates far apart in period order and in input order, among ids in
// no particular order: the message names the id an in-order scan meets a
// second time first, and an invalid field before that position wins.
TEST(TaskSet, RejectsDuplicateIdsFarApartInPeriodOrder) {
  std::vector<Task> tasks;
  for (TaskId i = 0; i < 64; ++i) {
    const Time period = 2'000 + 1'000 * static_cast<Time>((i * 29) % 64);
    tasks.push_back(Task{1, period, (i * 37) % 64});
  }
  ASSERT_EQ(validation_error(tasks), "");
  tasks[3].period = 1'000;       // first in period order
  tasks[50].period = 1'000'000;  // last in period order
  tasks[50].id = tasks[3].id;
  tasks[60].id = tasks[1].id;  // repeats later in input order
  EXPECT_EQ(validation_error(tasks), "duplicate task id " + std::to_string(tasks[3].id));
  tasks[55].wcet = 0;  // after the first repeat: not reached
  EXPECT_EQ(validation_error(tasks), "duplicate task id " + std::to_string(tasks[3].id));
  tasks[20].wcet = 0;  // before it: reported instead
  EXPECT_EQ(validation_error(tasks),
            "task " + std::to_string(tasks[20].id) + ": wcet must be positive");
  tasks[20].wcet = 1;
  tasks[50].wcet = 2'000'000;  // at the repeat itself: the field check comes first
  EXPECT_EQ(validation_error(tasks),
            "task " + std::to_string(tasks[50].id) + ": wcet exceeds period (U > 1)");
}

TEST(TaskSet, UtilizationAggregates) {
  const TaskSet set = TaskSet::from_pairs({{25, 100}, {50, 100}});
  EXPECT_DOUBLE_EQ(set.total_utilization(), 0.75);
  EXPECT_DOUBLE_EQ(set.normalized_utilization(3), 0.25);
  EXPECT_DOUBLE_EQ(set.max_utilization(), 0.5);
}

TEST(TaskSet, AllLighterThan) {
  const TaskSet set = TaskSet::from_pairs({{25, 100}, {30, 100}});
  EXPECT_TRUE(set.all_lighter_than(0.3));
  EXPECT_FALSE(set.all_lighter_than(0.29));
}

TEST(TaskSet, HarmonicDetection) {
  EXPECT_TRUE(TaskSet::from_pairs({{1, 1000}, {1, 2000}, {1, 8000}}).is_harmonic());
  EXPECT_FALSE(TaskSet::from_pairs({{1, 1000}, {1, 3000}, {1, 2000}}).is_harmonic());
  EXPECT_TRUE(TaskSet::from_pairs({{1, 500}}).is_harmonic());
  // Equal periods are mutually harmonic.
  EXPECT_TRUE(TaskSet::from_pairs({{1, 1000}, {2, 1000}}).is_harmonic());
}

TEST(TaskSet, ScaledWcetsRoundsAndClamps) {
  const TaskSet set = TaskSet::from_pairs({{10, 100}, {90, 100}});
  const TaskSet doubled = set.scaled_wcets(2.0);
  EXPECT_EQ(doubled[0].wcet, 20);
  EXPECT_EQ(doubled[1].wcet, 100);  // clamped at the period
  const TaskSet tiny = set.scaled_wcets(0.001);
  EXPECT_EQ(tiny[0].wcet, 1);  // clamped at one tick
}

TEST(TaskSet, DescribeMentionsEveryTask) {
  const TaskSet set = TaskSet::from_pairs({{10, 100}, {20, 200}});
  const std::string text = set.describe();
  EXPECT_NE(text.find("tau_0"), std::string::npos);
  EXPECT_NE(text.find("tau_1"), std::string::npos);
}

TEST(Subtask, WholeSubtaskMirrorsTask) {
  const Task task{30, 120, 9};
  const Subtask s = whole_subtask(task, 4);
  EXPECT_EQ(s.priority, 4u);
  EXPECT_EQ(s.task_id, 9u);
  EXPECT_EQ(s.part, 0);
  EXPECT_EQ(s.wcet, 30);
  EXPECT_EQ(s.period, 120);
  EXPECT_EQ(s.deadline, 120);
  EXPECT_EQ(s.kind, SubtaskKind::kWhole);
}

TEST(Subtask, PriorityComparison) {
  const Subtask high{1, 0, 0, 1, 10, 10, SubtaskKind::kWhole};
  const Subtask low{5, 1, 0, 1, 50, 50, SubtaskKind::kWhole};
  EXPECT_TRUE(high.higher_priority_than(low));
  EXPECT_FALSE(low.higher_priority_than(high));
}

TEST(Subtask, UtilizationUsesParentPeriod) {
  const Subtask s{0, 0, 1, 25, 100, 60, SubtaskKind::kTail};
  EXPECT_DOUBLE_EQ(s.utilization(), 0.25);
}

}  // namespace
}  // namespace rmts
