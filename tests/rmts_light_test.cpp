// RM-TS/light (Algorithms 1-2): assignment mechanics, splitting
// bookkeeping (Lemmas 2-3), worst-fit order, failure reporting, and
// randomized structural invariants.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"
#include "helpers.hpp"
#include "oracle/max_split_points.hpp"
#include "partition/rmts_light.hpp"
#include "workload/generators.hpp"

namespace rmts {
namespace {

TEST(RmtsLight, Name) { EXPECT_EQ(RmtsLight().name(), "RM-TS/light"); }

TEST(RmtsLight, TrivialFitWithoutSplitting) {
  const TaskSet tasks = TaskSet::from_pairs({{30, 100}, {30, 100}});
  const Assignment a = RmtsLight().partition(tasks, 2);
  ASSERT_TRUE(a.success);
  EXPECT_EQ(a.split_task_count(), 0u);
  EXPECT_EQ(a.subtask_count(), 2u);
  // Worst-fit: one task per processor.
  EXPECT_EQ(a.processors[0].subtasks.size(), 1u);
  EXPECT_EQ(a.processors[1].subtasks.size(), 1u);
  testing::expect_valid_partition(tasks, a);
}

TEST(RmtsLight, SingleProcessorEqualsUniprocessorRta) {
  // On M=1 the algorithm degenerates to exact uniprocessor admission.
  const TaskSet good = TaskSet::from_pairs({{20, 100}, {40, 150}, {100, 350}});
  EXPECT_TRUE(RmtsLight().accepts(good, 1));
  const TaskSet bad = TaskSet::from_pairs({{26, 70}, {62, 100}});
  EXPECT_FALSE(RmtsLight().accepts(bad, 1));
}

TEST(RmtsLight, SplitsWhenNecessary) {
  // Three tasks of U=0.6 on two processors (U_M = 0.9): strict
  // partitioning is impossible, splitting makes it work.
  const TaskSet tasks =
      TaskSet::from_pairs({{600, 1000}, {606, 1010}, {612, 1020}});
  const Assignment a = RmtsLight().partition(tasks, 2);
  ASSERT_TRUE(a.success) << a.describe();
  EXPECT_EQ(a.split_task_count(), 1u);
  EXPECT_EQ(a.subtask_count(), 4u);
  testing::expect_valid_partition(tasks, a);
}

TEST(RmtsLight, BodySubtaskHasHighestPriorityOnItsProcessor) {
  // Lemma 2, checked structurally by the helper on a splitting workload.
  const TaskSet tasks = TaskSet::from_pairs(
      {{340, 1000}, {343, 1010}, {347, 1020}, {350, 1030}, {354, 1040}});
  const Assignment a = RmtsLight().partition(tasks, 2);
  ASSERT_TRUE(a.success);
  EXPECT_GE(a.split_task_count(), 1u);
  testing::expect_valid_partition(tasks, a);
}

TEST(RmtsLight, TailDeadlineEqualsPeriodMinusBodyWcet) {
  // Lemma 3: Delta^t = T - C^body (body response = body wcet here).
  const TaskSet tasks =
      TaskSet::from_pairs({{600, 1000}, {606, 1010}, {612, 1020}});
  const Assignment a = RmtsLight().partition(tasks, 2);
  ASSERT_TRUE(a.success);
  for (const auto& [id, chain] : testing::chains_of(a)) {
    if (chain.size() < 2) continue;
    Time body_sum = 0;
    for (std::size_t k = 0; k + 1 < chain.size(); ++k) {
      body_sum += chain[k].subtask.wcet;
    }
    const Subtask& tail = chain.back().subtask;
    EXPECT_EQ(tail.deadline, tail.period - body_sum);
  }
}

TEST(RmtsLight, FailureListsUnassignedTasks) {
  // U_M = 1.5: impossible; the failure must name the leftover tasks.
  const TaskSet tasks = TaskSet::from_pairs({{900, 1000}, {900, 1000}, {900, 1000}});
  const Assignment a = RmtsLight().partition(tasks, 2);
  EXPECT_FALSE(a.success);
  EXPECT_FALSE(a.unassigned.empty());
}

TEST(RmtsLight, AllProcessorsFullOnFailure) {
  // On failure every processor carries real load (the proof's premise:
  // each has a bottleneck; in particular none was left empty).
  const TaskSet tasks =
      TaskSet::from_pairs({{900, 1000}, {901, 1001}, {902, 1002}, {903, 1003}});
  const Assignment a = RmtsLight().partition(tasks, 3);
  ASSERT_FALSE(a.success);
  for (const auto& processor : a.processors) {
    EXPECT_GT(processor.utilization(), 0.5);
  }
}

TEST(RmtsLight, EmptyTaskSetSucceeds) {
  const Assignment a = RmtsLight().partition(TaskSet(), 4);
  EXPECT_TRUE(a.success);
  EXPECT_EQ(a.subtask_count(), 0u);
}

TEST(RmtsLight, WorstFitSpreadsLoadEvenly) {
  // Eight identical light tasks on four processors: two per processor.
  const TaskSet tasks = TaskSet::from_pairs({{200, 1000},
                                             {201, 1005},
                                             {202, 1010},
                                             {203, 1015},
                                             {204, 1020},
                                             {205, 1025},
                                             {206, 1030},
                                             {207, 1035}});
  const Assignment a = RmtsLight().partition(tasks, 4);
  ASSERT_TRUE(a.success);
  for (const auto& processor : a.processors) {
    EXPECT_EQ(processor.subtasks.size(), 2u);
  }
}

// RM-TS/light with the shipped MaxSplit produces the assignment it would
// with the scheduling-point oracle: every body it places is the oracle's
// MaxSplit at the moment of its split (the rest of the algorithm is
// deterministic, so equal splits give equal assignments).  A processor
// is sealed right after its split, so the body was its last arrival and
// the hosts it was split against are the processor's other subtasks; the
// prototype carried the task's whole remaining wcet.
TEST(RmtsLight, BothMaxSplitMethodsProduceIdenticalAssignments) {
  Rng rng(77);
  WorkloadConfig config;
  config.tasks = 12;
  config.processors = 3;
  config.max_task_utilization = 0.5;
  std::size_t bodies = 0;
  for (int trial = 0; trial < 200; ++trial) {
    config.normalized_utilization = 0.55 + 0.4 * rng.uniform();
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    const Assignment assignment = RmtsLight().partition(tasks, 3);
    std::map<TaskId, std::map<int, Time>> parts;  // task -> part -> wcet
    for (const ProcessorAssignment& processor : assignment.processors) {
      for (const Subtask& s : processor.subtasks) {
        parts[s.task_id][s.part] = s.wcet;
      }
    }
    for (const ProcessorAssignment& processor : assignment.processors) {
      for (const Subtask& body : processor.subtasks) {
        if (body.kind != SubtaskKind::kBody) continue;
        ++bodies;
        std::vector<Subtask> hosts;
        for (const Subtask& s : processor.subtasks) {
          if (s.task_id != body.task_id) hosts.push_back(s);
        }
        Subtask prototype = body;
        for (const Task& task : tasks) {
          if (task.id == body.task_id) prototype.wcet = task.wcet;
        }
        for (const auto& [part, wcet] : parts[body.task_id]) {
          if (part < body.part) prototype.wcet -= wcet;
        }
        EXPECT_EQ(oracle::max_admissible_wcet(hosts, prototype), body.wcet)
            << "trial " << trial << " task " << body.task_id << " part "
            << body.part;
      }
    }
  }
  EXPECT_GT(bodies, 20u);
}

TEST(RmtsLight, RandomizedStructuralInvariants) {
  Rng rng(88);
  WorkloadConfig config;
  config.tasks = 16;
  config.processors = 4;
  config.max_task_utilization = 0.4;
  int accepted = 0;
  for (int trial = 0; trial < 100; ++trial) {
    config.normalized_utilization = 0.4 + 0.55 * rng.uniform();
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial) + 1000);
    const TaskSet tasks = generate(sample, config);
    const Assignment a = RmtsLight().partition(tasks, config.processors);
    if (!a.success) continue;
    ++accepted;
    testing::expect_valid_partition(tasks, a);
  }
  EXPECT_GT(accepted, 30);
}

TEST(RmtsLight, AcceptanceMonotoneUnderDeflation) {
  // Halving every WCET of an accepted set keeps it accepted.
  Rng rng(99);
  WorkloadConfig config;
  config.tasks = 12;
  config.processors = 3;
  config.max_task_utilization = 0.4;
  config.normalized_utilization = 0.8;
  for (int trial = 0; trial < 30; ++trial) {
    Rng sample = rng.fork(static_cast<std::uint64_t>(trial));
    const TaskSet tasks = generate(sample, config);
    if (!RmtsLight().accepts(tasks, 3)) continue;
    EXPECT_TRUE(RmtsLight().accepts(tasks.scaled_wcets(0.5), 3));
  }
}

}  // namespace
}  // namespace rmts
