// RM-TS (paper Section V, Algorithms 3-4): the general algorithm.
//
// Four phases:
//  0. *Dedicated processors* (paper footnote 5).  A task with
//     U_i > Lambda(tau) gets a processor of its own (sealed); each such
//     processor carries more than Lambda utilization, so the overall
//     normalized bound is preserved and the remaining phases only ever see
//     tasks with U_i <= Lambda -- the paper's standing assumption, made
//     true by construction.
//  1. *Pre-assignment.*  Visiting tasks in decreasing priority order, every
//     heavy task (U_i > Theta/(1+Theta)) whose lower-priority utilization
//     is small --  sum_{j>i} U_j <= (|P(tau_i)| - 1) * Lambda(tau)  -- is
//     pre-assigned alone to the lowest-index still-normal processor.  Such
//     a task's tail would otherwise end up with low local priority, which
//     is the case the light-set proof cannot handle.
//  2. *Normal phase.*  Remaining tasks go to the normal processors exactly
//     as in RM-TS/light (worst-fit, increasing priority order, exact-RTA
//     admission, MaxSplit on overflow).
//  3. *Fill phase.*  Still in increasing priority order, leftovers fill the
//     pre-assigned processors first-fit, starting from the processor
//     hosting the lowest-priority pre-assigned task (largest index).
//
// Guarantee: for ANY task set, the clamped bound
// min(Lambda(tau), 2*Theta/(1+Theta))  is a valid normalized utilization
// bound (phase 0 discharges the paper's per-task utilization assumption).
// The clamp (~81.8% as N grows) is also what the pre-assign condition
// uses, matching the Section V proof hypotheses.
#pragma once

#include "bounds/bound.hpp"
#include "partition/assignment.hpp"

namespace rmts {

class Rmts final : public Partitioner {
 public:
  /// `bound` is the D-PUB Lambda used by the pre-assign condition (and the
  /// bound the caller wants guaranteed); RM-TS clamps it to the Section V
  /// cap internally.
  explicit Rmts(BoundPtr bound, std::string label = "RM-TS");

  /// Evaluates guaranteed_bound(tasks) once, then partitions with it.
  [[nodiscard]] Assignment partition(const TaskSet& tasks,
                                     std::size_t processors) const override;

  /// As above with the clamped bound already evaluated: `lambda` must be
  /// guaranteed_bound(tasks).  Callers that also report the bound (the
  /// server's admit reply) evaluate it once and pass it here.
  [[nodiscard]] Assignment partition(const TaskSet& tasks,
                                     std::size_t processors,
                                     double lambda) const;

  [[nodiscard]] std::string name() const override { return label_; }

  /// The clamped bound min(Lambda(tau), 2 Theta/(1+Theta)) this instance
  /// guarantees for `tasks`.
  [[nodiscard]] double guaranteed_bound(const TaskSet& tasks) const;

 private:
  BoundPtr bound_;
  std::string label_;
};

}  // namespace rmts
