#include "partition/spa.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "bounds/bound.hpp"
#include "partition/policies.hpp"
#include "partition/splitting.hpp"

namespace rmts {

namespace {

/// Tolerance for threshold comparisons: utilizations are exact rationals
/// evaluated in double, so a few ulps of slack avoids spurious splits when
/// a processor lands exactly on Theta.
constexpr double kEps = 1e-9;

/// SPA's Assign: threshold admission, threshold splitting.  Mirrors
/// assign_or_split() but fills the processor to Theta instead of to its
/// RTA bottleneck.  Body response time is taken as its wcet (Lemma 2
/// applies to SPA for the same structural reason: the processor is full
/// once a body lands on it, so the body keeps the highest local priority).
bool spa_assign(ProcessorState& processor, ChainCursor& cursor, double theta) {
  const Subtask candidate = cursor.candidate();
  if (processor.utilization() + candidate.utilization() <= theta + kEps) {
    processor.add(candidate);
    cursor.consume_all();
    return true;
  }
  const double slack = theta - processor.utilization();
  Time body_wcet = static_cast<Time>(
      std::floor(slack * static_cast<double>(candidate.period) + kEps));
  body_wcet = std::clamp<Time>(body_wcet, 0, candidate.wcet - 1);
  if (body_wcet > 0) {
    Subtask body = candidate;
    body.wcet = body_wcet;
    body.kind = SubtaskKind::kBody;
    processor.add(body);
    cursor.consume_body(body_wcet, body_wcet);
  }
  processor.mark_full();
  return false;
}

/// The shared increasing-priority assignment loop over a processor-
/// selection policy; returns the unassigned ids (empty on success).
template <typename PickProcessor>
std::vector<TaskId> spa_fill(const TaskSet& tasks,
                             std::span<ProcessorState> processors,
                             const std::vector<char>& skip, double theta,
                             PickProcessor pick) {
  std::vector<TaskId> unassigned;
  const std::size_t n = tasks.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t rank = n - 1 - step;
    if (skip[rank]) continue;
    ChainCursor cursor(tasks[rank], rank);
    bool placed = false;
    while (!placed) {
      const auto q = pick(processors);
      if (!q) break;
      placed = spa_assign(processors[*q], cursor, theta);
    }
    if (!placed) {
      unassigned.push_back(cursor.task_id());
      for (std::size_t r = rank; r-- > 0;) {
        if (!skip[r]) unassigned.push_back(tasks[r].id);
      }
      break;
    }
  }
  return unassigned;
}

}  // namespace

Assignment Spa1::partition(const TaskSet& tasks, std::size_t m) const {
  const double theta = liu_layland_theta(tasks.size());
  const PartitionWorkspace workspace(m);
  const std::span<ProcessorState> processors = workspace.processors();
  const std::vector<char> skip(tasks.size(), 0);
  auto unassigned =
      spa_fill(tasks, processors, skip, theta,
               [](std::span<const ProcessorState> ps) {
                 return least_utilized_non_full(ps);
               });
  return finalize_assignment(processors, std::move(unassigned));
}

Assignment Spa2::partition(const TaskSet& tasks, std::size_t m) const {
  const std::size_t n = tasks.size();
  const double theta = liu_layland_theta(n);
  const double light_threshold = light_task_threshold(n);

  const PartitionWorkspace workspace(m);
  const std::span<ProcessorState> processors = workspace.processors();
  std::vector<std::size_t> normal;
  std::vector<std::size_t> pre_assigned;
  std::vector<char> task_pre_assigned(n, 0);

  std::vector<double> suffix_util(n + 1, 0.0);
  for (std::size_t rank = n; rank-- > 0;) {
    suffix_util[rank] = suffix_util[rank + 1] + tasks[rank].utilization();
  }

  std::size_t next_processor = 0;
  for (std::size_t rank = 0; rank < n; ++rank) {
    if (next_processor >= m) break;
    if (tasks[rank].utilization() <= light_threshold) continue;
    const double normal_count = static_cast<double>(m - next_processor);
    if (suffix_util[rank + 1] <= (normal_count - 1.0) * theta) {
      processors[next_processor].add(whole_subtask(tasks[rank], rank));
      pre_assigned.push_back(next_processor);
      task_pre_assigned[rank] = 1;
      ++next_processor;
    }
  }
  for (std::size_t q = next_processor; q < m; ++q) normal.push_back(q);

  auto unassigned = spa_fill(
      tasks, processors, task_pre_assigned, theta,
      [&](std::span<const ProcessorState> ps) -> std::optional<std::size_t> {
        if (auto q = least_utilized_non_full(ps, normal)) return q;
        // Fill phase: largest-index pre-assigned processor first.
        for (auto it = pre_assigned.rbegin(); it != pre_assigned.rend(); ++it) {
          if (!ps[*it].full()) return *it;
        }
        return std::nullopt;
      });
  return finalize_assignment(processors, std::move(unassigned));
}

}  // namespace rmts
