// Assignment::split_task_count counts the subtasks with part == 1, which
// relies on every partitioner numbering a task's placed pieces 0, 1, ...
// in chain order.  The oracle here is the counting it replaced: sort every
// placed task id and count the ids that occur at least twice.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bounds/harmonic.hpp"
#include "common/rng.hpp"
#include "partition/edf_split.hpp"
#include "partition/rmts.hpp"
#include "partition/rmts_light.hpp"
#include "workload/generators.hpp"

namespace rmts {
namespace {

std::size_t sorted_id_split_count(const Assignment& assignment) {
  std::vector<TaskId> ids;
  for (const ProcessorAssignment& proc : assignment.processors) {
    for (const Subtask& s : proc.subtasks) ids.push_back(s.task_id);
  }
  std::sort(ids.begin(), ids.end());
  std::size_t split = 0;
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] == ids[i - 1] && (i == 1 || ids[i - 1] != ids[i - 2])) ++split;
  }
  return split;
}

TEST(SplitTaskCount, MatchesTheSortedIdOracleOnRandomPartitions) {
  std::vector<std::unique_ptr<const Partitioner>> partitioners;
  partitioners.push_back(
      std::make_unique<Rmts>(std::make_shared<HarmonicChainBound>()));
  partitioners.push_back(std::make_unique<RmtsLight>(SelectionPolicy::kWorstFit));
  partitioners.push_back(std::make_unique<RmtsLight>(SelectionPolicy::kFirstFit));
  partitioners.push_back(std::make_unique<EdfSplit>());

  Rng rng(77);
  std::size_t split_total = 0;
  std::size_t failed_with_parts = 0;
  for (int draw = 0; draw < 300; ++draw) {
    WorkloadConfig config;
    config.processors = static_cast<std::size_t>(rng.uniform_int(1, 12));
    config.tasks = config.processors +
                   static_cast<std::size_t>(rng.uniform_int(0, 40));
    config.normalized_utilization = rng.uniform(0.5, 1.0);
    // A few draws on a short period range, where split chains run long.
    if (draw % 4 == 0) config.period_max = 5000;
    const TaskSet tasks = generate(rng, config);
    for (const auto& partitioner : partitioners) {
      const Assignment a = partitioner->partition(tasks, config.processors);
      const std::size_t expected = sorted_id_split_count(a);
      ASSERT_EQ(a.split_task_count(), expected)
          << partitioner->name() << ", draw " << draw << "\n"
          << a.describe();
      split_total += expected;
      if (!a.success && a.subtask_count() > 0) ++failed_with_parts;
    }
  }
  // The draws must exercise splits and failed runs that left pieces placed.
  EXPECT_GT(split_total, 100U);
  EXPECT_GT(failed_with_parts, 10U);
}

}  // namespace
}  // namespace rmts
