// The splitting engine: ChainCursor bookkeeping, assign_or_split outcomes,
// the body-top-priority guard, split granularity, and the shared
// processor-selection policies and Assignment utilities.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "oracle/max_split_points.hpp"
#include "partition/policies.hpp"
#include "partition/rmts_light.hpp"
#include "partition/splitting.hpp"

namespace rmts {
namespace {

TEST(ChainCursor, FreshTaskIsWholeCandidate) {
  const Task task{40, 100, 7};
  const ChainCursor cursor(task, 3);
  EXPECT_FALSE(cursor.exhausted());
  const Subtask candidate = cursor.candidate();
  EXPECT_EQ(candidate.kind, SubtaskKind::kWhole);
  EXPECT_EQ(candidate.wcet, 40);
  EXPECT_EQ(candidate.deadline, 100);
  EXPECT_EQ(candidate.part, 0);
  EXPECT_EQ(candidate.priority, 3u);
  EXPECT_EQ(candidate.task_id, 7u);
}

TEST(ChainCursor, ConsumeBodyAdvancesPartAndDeadline) {
  const Task task{40, 100, 7};
  ChainCursor cursor(task, 3);
  cursor.consume_body(15, 15);
  EXPECT_FALSE(cursor.exhausted());
  const Subtask tail = cursor.candidate();
  EXPECT_EQ(tail.kind, SubtaskKind::kTail);
  EXPECT_EQ(tail.wcet, 25);
  EXPECT_EQ(tail.deadline, 85);  // Eq. 1: 100 - R(=15)
  EXPECT_EQ(tail.part, 1);
}

TEST(ChainCursor, ConsumeAllExhausts) {
  const Task task{40, 100, 7};
  ChainCursor cursor(task, 3);
  cursor.consume_all();
  EXPECT_TRUE(cursor.exhausted());
}

TEST(AssignOrSplit, WholeFitPlacesAndExhausts) {
  ProcessorState processor;
  ChainCursor cursor(Task{40, 100, 0}, 0);
  EXPECT_TRUE(assign_or_split(processor, cursor));
  EXPECT_TRUE(cursor.exhausted());
  EXPECT_FALSE(processor.full());
  EXPECT_EQ(processor.subtasks().size(), 1u);
}

TEST(AssignOrSplit, OverflowSplitsAndMarksFull) {
  ProcessorState processor;
  processor.add(Subtask{5, 5, 0, 60, 100, 100, SubtaskKind::kWhole});
  ChainCursor cursor(Task{80, 100, 0}, 0);
  const Time expected =
      oracle::max_admissible_wcet(processor.subtasks(), cursor.candidate());
  EXPECT_FALSE(assign_or_split(processor, cursor));
  EXPECT_TRUE(processor.full());
  EXPECT_FALSE(cursor.exhausted());
  EXPECT_EQ(processor.subtasks().size(), 2u);
  // Body got 40 ticks (fills the processor to its bottleneck exactly), the
  // scheduling-point oracle's value.
  EXPECT_EQ(expected, 40);
  EXPECT_EQ(processor.subtasks().front().wcet, expected);
  EXPECT_EQ(processor.subtasks().front().kind, SubtaskKind::kBody);
  EXPECT_EQ(cursor.remaining_wcet(), 40);
  EXPECT_EQ(cursor.remaining_deadline(), 60);
}

TEST(AssignOrSplit, NothingFitsLeavesCursorUntouched) {
  ProcessorState processor;
  processor.add(Subtask{5, 5, 0, 100, 100, 100, SubtaskKind::kWhole});
  ChainCursor cursor(Task{10, 50, 0}, 0);
  EXPECT_FALSE(assign_or_split(processor, cursor));
  EXPECT_TRUE(processor.full());
  EXPECT_EQ(cursor.remaining_wcet(), 10);
  EXPECT_EQ(cursor.remaining_deadline(), 50);
  EXPECT_EQ(processor.subtasks().size(), 1u);
}

TEST(AssignOrSplit, RefusesToSplitBelowHigherPriorityTask) {
  // A hosted higher-priority task (e.g. a pre-assigned heavy one) means the
  // candidate cannot become a top-priority body here: the guard must mark
  // the processor full without splitting (Lemma 2 kept structural).
  ProcessorState processor;
  processor.add(Subtask{1, 1, 0, 60, 100, 100, SubtaskKind::kWhole});
  ChainCursor cursor(Task{90, 200, 0}, 4);  // lower priority than rank 1
  EXPECT_FALSE(assign_or_split(processor, cursor));
  EXPECT_TRUE(processor.full());
  EXPECT_EQ(cursor.remaining_wcet(), 90);         // nothing consumed
  EXPECT_EQ(processor.subtasks().size(), 1u);     // nothing placed
}

TEST(AssignOrSplit, WholeFitBelowHigherPriorityTaskIsStillAllowed) {
  // The guard only blocks *splitting*; whole placements (zero jitter) are
  // fine below a higher-priority task.
  ProcessorState processor;
  processor.add(Subtask{1, 1, 0, 60, 100, 100, SubtaskKind::kWhole});
  ChainCursor cursor(Task{50, 200, 0}, 4);
  EXPECT_TRUE(assign_or_split(processor, cursor));
  EXPECT_EQ(processor.subtasks().size(), 2u);
}

TEST(AssignOrSplit, GranularityQuantizesPrefix) {
  ProcessorState processor;
  processor.add(Subtask{5, 5, 0, 60, 100, 100, SubtaskKind::kWhole});
  ChainCursor cursor(Task{80, 100, 0}, 0);
  EXPECT_FALSE(assign_or_split(processor, cursor, 25));
  // Exact MaxSplit would give 40; quantized down to 25.
  EXPECT_EQ(processor.subtasks().front().wcet, 25);
  EXPECT_EQ(cursor.remaining_wcet(), 55);
}

TEST(AssignOrSplit, GranularityCanForceEmptySplit) {
  ProcessorState processor;
  processor.add(Subtask{5, 5, 0, 60, 100, 100, SubtaskKind::kWhole});
  ChainCursor cursor(Task{80, 100, 0}, 0);
  EXPECT_FALSE(assign_or_split(processor, cursor, 64));
  EXPECT_EQ(processor.subtasks().size(), 1u);  // 40 -> quantized to 0
  EXPECT_EQ(cursor.remaining_wcet(), 80);
}

TEST(RmtsLightConfig, RejectsNonPositiveGranularity) {
  EXPECT_THROW(RmtsLight(SelectionPolicy::kWorstFit, 0),
               InvalidConfigError);
}

TEST(RmtsLightConfig, NameReflectsKnobs) {
  EXPECT_EQ(RmtsLight(SelectionPolicy::kFirstFit).name(),
            "RM-TS/light[ff]");
  EXPECT_EQ(RmtsLight(SelectionPolicy::kWorstFit, 100).name(),
            "RM-TS/light[g=100]");
}

TEST(Policies, LeastUtilizedPicksMinimumAndBreaksTiesLow) {
  std::vector<ProcessorState> processors(3);
  processors[0].add(Subtask{0, 0, 0, 30, 100, 100, SubtaskKind::kWhole});
  processors[2].add(Subtask{1, 1, 0, 10, 100, 100, SubtaskKind::kWhole});
  EXPECT_EQ(least_utilized_non_full(processors), 1u);  // empty wins
  processors[1].add(Subtask{2, 2, 0, 10, 100, 100, SubtaskKind::kWhole});
  EXPECT_EQ(least_utilized_non_full(processors), 1u);  // tie 0.1 -> lowest idx
}

TEST(Policies, SkipsFullProcessors) {
  std::vector<ProcessorState> processors(2);
  processors[0].mark_full();
  EXPECT_EQ(least_utilized_non_full(processors), 1u);
  processors[1].mark_full();
  EXPECT_FALSE(least_utilized_non_full(processors).has_value());
}

TEST(Policies, CandidateSubsetRespected) {
  std::vector<ProcessorState> processors(3);
  processors[2].add(Subtask{0, 0, 0, 90, 100, 100, SubtaskKind::kWhole});
  const std::vector<std::size_t> only_third{2};
  EXPECT_EQ(least_utilized_non_full(processors, only_third), 2u);
}

TEST(AssignmentStats, CountsSplitsAndSubtasks) {
  Assignment a;
  a.success = true;
  a.processors.resize(2);
  a.processors[0].subtasks = {Subtask{0, 0, 0, 10, 100, 100, SubtaskKind::kBody},
                              Subtask{1, 1, 0, 20, 200, 200, SubtaskKind::kWhole}};
  a.processors[1].subtasks = {Subtask{0, 0, 1, 15, 100, 90, SubtaskKind::kTail}};
  EXPECT_EQ(a.split_task_count(), 1u);
  EXPECT_EQ(a.subtask_count(), 3u);
  EXPECT_NEAR(a.assigned_utilization(), 0.1 + 0.1 + 0.15, 1e-12);
  EXPECT_NEAR(a.min_processor_utilization(), 0.15, 1e-12);
}

TEST(AssignmentStats, DescribeShowsSplitMarkersAndFailures) {
  Assignment a;
  a.success = false;
  a.processors.resize(1);
  a.processors[0].subtasks = {Subtask{0, 3, 0, 10, 100, 100, SubtaskKind::kBody}};
  a.unassigned = {9};
  const std::string text = a.describe();
  EXPECT_NE(text.find("FAILURE"), std::string::npos);
  EXPECT_NE(text.find("tau_3^b0"), std::string::npos);
  EXPECT_NE(text.find("tau_9"), std::string::npos);
}

TEST(AssignmentStats, EmptyAssignment) {
  const Assignment a;
  EXPECT_EQ(a.split_task_count(), 0u);
  EXPECT_EQ(a.subtask_count(), 0u);
  EXPECT_DOUBLE_EQ(a.assigned_utilization(), 0.0);
  EXPECT_DOUBLE_EQ(a.min_processor_utilization(), 0.0);
}

}  // namespace
}  // namespace rmts
