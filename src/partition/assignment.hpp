// Result types of partitioned scheduling (with task splitting).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tasks/subtask.hpp"
#include "tasks/task_set.hpp"

namespace rmts {

/// Subtasks hosted by one processor, ordered by increasing priority rank
/// (index 0 = highest priority), as required by analyze_processor.
struct ProcessorAssignment {
  std::vector<Subtask> subtasks;

  /// U(P_q): utilization sum of the hosted subtasks.
  [[nodiscard]] double utilization() const noexcept {
    double sum = 0.0;
    for (const Subtask& s : subtasks) sum += s.utilization();
    return sum;
  }
};

/// Outcome of a partitioning algorithm on (tau, M).
struct Assignment {
  bool success{false};
  std::vector<ProcessorAssignment> processors;
  /// Ids of tasks left (fully or partially) unassigned on failure.  A task
  /// whose prefix was placed but whose remainder did not fit appears here.
  std::vector<TaskId> unassigned;

  /// Number of tasks that were split across >= 2 processors, counted as
  /// the subtasks with part == 1.  That relies on how every partitioner
  /// places a task's pieces: parts are numbered 0, 1, ..., k-1 in chain
  /// order (ChainCursor numbers each placed body and the piece after it;
  /// edf_split numbers its staged pieces the same way and commits all of
  /// them or none), so a task has a part-1 subtask iff it has at least two
  /// placed parts -- also when a failed run left a prefix of its chain.
  [[nodiscard]] std::size_t split_task_count() const;

  /// Total subtasks across all processors.
  [[nodiscard]] std::size_t subtask_count() const;

  /// Sum of assigned utilization over all processors.
  [[nodiscard]] double assigned_utilization() const;

  /// Smallest per-processor assigned utilization (0 if no processors).
  [[nodiscard]] double min_processor_utilization() const;

  /// One line per processor: hosted subtasks and utilization.
  [[nodiscard]] std::string describe() const;
};

/// Common interface of every schedulability decision procedure in the
/// repo -- partitioning algorithms and closed-form global tests alike --
/// so the experiment harness can sweep over a heterogeneous roster.
class SchedulabilityTest {
 public:
  virtual ~SchedulabilityTest() = default;

  /// True iff the algorithm guarantees tau schedulable on M processors.
  [[nodiscard]] virtual bool accepts(const TaskSet& tasks, std::size_t processors) const = 0;

  /// Identifier for tables/plots.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// A partitioning algorithm: produces an explicit Assignment; acceptance is
/// assignment success.
class Partitioner : public SchedulabilityTest {
 public:
  [[nodiscard]] virtual Assignment partition(const TaskSet& tasks,
                                             std::size_t processors) const = 0;

  [[nodiscard]] bool accepts(const TaskSet& tasks, std::size_t processors) const override {
    return partition(tasks, processors).success;
  }
};

}  // namespace rmts
