#include "partition/rmts.hpp"

#include <algorithm>
#include <deque>
#include <vector>

#include "common/trace.hpp"
#include "partition/policies.hpp"
#include "partition/splitting.hpp"

namespace rmts {

namespace {

/// Largest-index non-full processor among `candidates` (paper Algorithm 3,
/// line 19: first-fit starting at the processor hosting the lowest-priority
/// pre-assigned task).
std::optional<std::size_t> largest_index_non_full(
    const std::vector<ProcessorState>& processors,
    const std::vector<std::size_t>& candidates) {
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    if (!processors[*it].full()) return *it;
  }
  return std::nullopt;
}

}  // namespace

Rmts::Rmts(BoundPtr bound, std::string label)
    : bound_(std::move(bound)), label_(std::move(label)) {}

double Rmts::guaranteed_bound(const TaskSet& tasks) const {
  return std::min(bound_->evaluate(tasks), rmts_bound_cap(tasks.size()));
}

Assignment Rmts::partition(const TaskSet& tasks, std::size_t m) const {
  return partition(tasks, m, guaranteed_bound(tasks));
}

Assignment Rmts::partition(const TaskSet& tasks, std::size_t m,
                           double lambda) const {
  trace::count(trace::Counter::kPartitionRuns);
  const std::size_t n = tasks.size();
  const double light_threshold = light_task_threshold(n);

  std::vector<ProcessorState> processors(m);
  std::deque<std::size_t> unmarked;  // processors not dedicated/pre-assigned
  for (std::size_t q = 0; q < m; ++q) unmarked.push_back(q);
  std::vector<char> task_placed(n, 0);
  std::vector<TaskId> unassigned;

  // ---- Phase 0: dedicated processors (paper footnote 5) ------------------
  // A task whose utilization exceeds Lambda(tau) cannot be covered by the
  // per-processor bound argument; it executes exclusively on its own
  // processor.  Each dedicated processor carries > lambda utilization, so
  // the overall normalized bound is preserved.
  {
    const trace::Span span(trace::Stage::kPartitionDedicate);
    for (std::size_t rank = 0; rank < n; ++rank) {
      if (tasks[rank].utilization() <= lambda) continue;
      if (unmarked.empty()) {
        unassigned.push_back(tasks[rank].id);
        task_placed[rank] = 1;  // handled (as a failure); skip later phases
        continue;
      }
      const std::size_t q = unmarked.front();
      unmarked.pop_front();
      processors[q].add(whole_subtask(tasks[rank], rank));
      processors[q].mark_full();  // exclusive: nothing else lands here
      task_placed[rank] = 1;
    }
  }

  // ---- Phase 1: pre-assignment (decreasing priority order) ---------------
  // suffix_util[rank] = sum of utilizations of all lower-priority tasks.
  std::vector<std::size_t> pre_assigned;  // indices, in pre-assignment order
  {
    const trace::Span span(trace::Stage::kPartitionPreassign);
    std::vector<double> suffix_util(n + 1, 0.0);
    for (std::size_t rank = n; rank-- > 0;) {
      suffix_util[rank] = suffix_util[rank + 1] + tasks[rank].utilization();
    }

    for (std::size_t rank = 0; rank < n && !unmarked.empty(); ++rank) {
      if (task_placed[rank]) continue;
      const double u = tasks[rank].utilization();
      if (u <= light_threshold) continue;  // light task: never pre-assigned
      const double normal_count = static_cast<double>(unmarked.size());
      if (suffix_util[rank + 1] <= (normal_count - 1.0) * lambda) {
        const std::size_t q = unmarked.front();  // minimal-index normal
        unmarked.pop_front();
        processors[q].add(whole_subtask(tasks[rank], rank));
        pre_assigned.push_back(q);
        task_placed[rank] = 1;
      }
    }
  }
  const std::vector<std::size_t> normal(unmarked.begin(), unmarked.end());

  // ---- Phases 2 and 3 (increasing priority order) ------------------------
  // Phase 2 fills the normal processors worst-fit; when they are all full,
  // the current chain and all later tasks continue first-fit onto the
  // pre-assigned processors, largest index (lowest-priority pre-assigned
  // task) first.
  {
    const trace::Span span(trace::Stage::kPartitionPlace);
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t rank = n - 1 - step;
      if (task_placed[rank]) continue;
      ChainCursor cursor(tasks[rank], rank);
      bool placed = false;
      while (!placed) {
        auto q = least_utilized_non_full(processors, normal);
        if (!q) q = largest_index_non_full(processors, pre_assigned);
        if (!q) break;  // every processor full
        placed = assign_or_split(processors[*q], cursor);
      }
      if (!placed) {
        unassigned.push_back(cursor.task_id());
        for (std::size_t r = rank; r-- > 0;) {
          if (!task_placed[r]) unassigned.push_back(tasks[r].id);
        }
        break;
      }
    }
  }
  return finalize_assignment(processors, std::move(unassigned));
}

}  // namespace rmts
