// The task-splitting assignment step shared by RM-TS and RM-TS/light
// (paper Algorithm 2, routine Assign).
#pragma once

#include "partition/max_split.hpp"
#include "partition/processor_state.hpp"
#include "tasks/task.hpp"

namespace rmts {

/// The portion of one task still awaiting assignment, plus the bookkeeping
/// needed to stamp subtasks correctly: part numbering and the synthetic
/// deadline  Delta_i^k = T_i - sum_{l<k} R_i^l  (paper Eq. 1), maintained
/// incrementally from the *measured* response times of the placed bodies.
class ChainCursor {
 public:
  ChainCursor(const Task& task, std::size_t priority) noexcept
      : task_id_(task.id),
        priority_(priority),
        period_(task.period),
        remaining_wcet_(task.wcet),
        remaining_deadline_(task.period) {}

  [[nodiscard]] bool exhausted() const noexcept { return remaining_wcet_ == 0; }
  [[nodiscard]] TaskId task_id() const noexcept { return task_id_; }
  [[nodiscard]] Time remaining_wcet() const noexcept { return remaining_wcet_; }
  [[nodiscard]] Time remaining_deadline() const noexcept { return remaining_deadline_; }
  [[nodiscard]] int parts_placed() const noexcept { return next_part_; }

  /// The current piece as a candidate subtask: all remaining execution,
  /// with the remaining synthetic deadline.  kWhole if nothing was split
  /// off yet, kTail otherwise.
  [[nodiscard]] Subtask candidate() const noexcept {
    return Subtask{priority_,
                   task_id_,
                   next_part_,
                   remaining_wcet_,
                   period_,
                   remaining_deadline_,
                   next_part_ == 0 ? SubtaskKind::kWhole : SubtaskKind::kTail};
  }

  /// Records that a body prefix of `wcet` ticks with measured worst-case
  /// response time `response` was placed; shrinks the remainder and its
  /// synthetic deadline.
  void consume_body(Time wcet, Time response) noexcept {
    remaining_wcet_ -= wcet;
    remaining_deadline_ -= response;
    ++next_part_;
  }

  /// Marks the final piece as placed.
  void consume_all() noexcept { remaining_wcet_ = 0; }

 private:
  TaskId task_id_;
  std::size_t priority_;
  Time period_;
  Time remaining_wcet_;
  Time remaining_deadline_;
  int next_part_{0};
};

/// Paper Algorithm 2.  Tries to place the cursor's current piece on
/// `processor`:
///  * if it fits entirely (exact RTA), places it and returns true;
///  * otherwise places the MaxSplit prefix (possibly empty), marks the
///    processor full, updates the cursor to the remainder, returns false.
/// `split_granularity` (>= 1 tick) rounds the placed prefix down to a
/// multiple of G -- an ablation for platforms with coarse migration slots;
/// 1 reproduces the paper.
bool assign_or_split(ProcessorState& processor, ChainCursor& cursor,
                     Time split_granularity = 1);

}  // namespace rmts
