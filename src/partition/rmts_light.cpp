#include "partition/rmts_light.hpp"

#include <vector>

#include "common/error.hpp"
#include "partition/policies.hpp"
#include "partition/splitting.hpp"

namespace rmts {

namespace {

std::optional<std::size_t> lowest_index_non_full(
    const std::vector<ProcessorState>& processors) {
  for (std::size_t q = 0; q < processors.size(); ++q) {
    if (!processors[q].full()) return q;
  }
  return std::nullopt;
}

}  // namespace

RmtsLight::RmtsLight(SelectionPolicy selection, Time split_granularity)
    : selection_(selection), split_granularity_(split_granularity) {
  if (split_granularity_ < 1) {
    throw InvalidConfigError("RmtsLight: split granularity must be >= 1 tick");
  }
  name_ = "RM-TS/light";
  if (selection_ == SelectionPolicy::kFirstFit) name_ += "[ff]";
  if (split_granularity_ > 1) {
    name_ += "[g=" + std::to_string(split_granularity_) + "]";
  }
}

Assignment RmtsLight::partition(const TaskSet& tasks, std::size_t m) const {
  std::vector<ProcessorState> processors(m);
  std::vector<TaskId> unassigned;

  // Increasing priority order: lowest priority (largest RM rank) first.
  for (std::size_t step = 0; step < tasks.size(); ++step) {
    const std::size_t rank = tasks.size() - 1 - step;
    ChainCursor cursor(tasks[rank], rank);
    bool placed = false;
    while (!placed) {
      const auto q = selection_ == SelectionPolicy::kWorstFit
                         ? least_utilized_non_full(processors)
                         : lowest_index_non_full(processors);
      if (!q) break;  // all processors full
      placed = assign_or_split(processors[*q], cursor, split_granularity_);
    }
    if (!placed) {
      // This task (possibly mid-split) and every higher-priority task that
      // was never attempted remain unassigned.
      unassigned.push_back(cursor.task_id());
      for (std::size_t r = rank; r-- > 0;) unassigned.push_back(tasks[r].id);
      break;
    }
  }
  return finalize_assignment(processors, std::move(unassigned));
}

}  // namespace rmts
