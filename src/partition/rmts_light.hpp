// RM-TS/light (paper Section IV, Algorithms 1-2).
//
// Worst-fit semi-partitioning with task splitting and *exact RTA*
// admission: tasks are visited in increasing priority order; each goes to
// the non-full processor with the least assigned utilization; a task that
// does not fit entirely is split by MaxSplit, the maximal prefix stays, the
// processor becomes full and the remainder continues.
//
// Theorem 8: for light task sets (every U_i <= Theta/(1+Theta)), any
// deflatable parametric utilization bound Lambda(tau) -- evaluated on the
// ORIGINAL task set -- is a valid normalized utilization bound of this
// algorithm on M processors.  The bound never appears in the algorithm
// itself; exact RTA admission is what both enables the proof and lifts the
// average case far above the worst-case bound.
//
// Two ablation knobs (defaults reproduce the paper's algorithm; used by
// bench_e10_ablations to quantify the design decisions):
//  * selection: worst-fit processor choice (the paper's, required by the
//    X^bj >= X^t step of the Lemma 7 proof) vs plain first-fit;
//  * split_granularity: quantize MaxSplit prefixes to multiples of G ticks,
//    emulating systems where migration points must align to coarse slots.
#pragma once

#include "partition/assignment.hpp"

namespace rmts {

/// Processor-selection policy for the assignment loop.
enum class SelectionPolicy : std::uint8_t {
  kWorstFit,  ///< least-utilized non-full processor (the paper's choice)
  kFirstFit,  ///< lowest-index non-full processor
};

class RmtsLight final : public Partitioner {
 public:
  explicit RmtsLight(SelectionPolicy selection = SelectionPolicy::kWorstFit,
                     Time split_granularity = 1);

  [[nodiscard]] Assignment partition(const TaskSet& tasks,
                                     std::size_t processors) const override;

  [[nodiscard]] std::string name() const override { return name_; }

 private:
  SelectionPolicy selection_;
  Time split_granularity_;
  std::string name_;
};

}  // namespace rmts
