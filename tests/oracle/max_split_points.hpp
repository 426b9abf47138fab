// Test-only oracles for MaxSplit (paper Definition 3) and the time-demand
// testing sets it is built on.  Linked by the tests, rmts_fuzz and
// bench_e8 through the `rmts_oracle` library; nothing shipped depends on
// it.
//
// The shipped max_admissible_wcet (partition/max_split.hpp) is a binary
// search over ProcessorState::fits(), i.e. over the response-time fixed
// point evaluated by the SoA kernel.  The oracle here reaches the same
// value by an independent route -- the scheduling-point method of [22]:
// the Lehoczky/Sha/Ding time-demand test, maximized in closed form over
// each hosted subtask's testing set -- with no caches, so the two share
// neither arithmetic nor state.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/time.hpp"
#include "tasks/subtask.hpp"

namespace rmts::oracle {

/// Time-demand analysis testing set for a subtask with deadline
/// `deadline` under the given higher-priority interferers: all multiples
/// m*T_j in (0, deadline] plus `deadline` itself, deduplicated and sorted.
[[nodiscard]] std::vector<Time> scheduling_points(
    Time deadline, std::span<const Subtask> interferers);

/// As above into a caller-supplied scratch buffer (cleared first).
void scheduling_points(Time deadline, std::span<const Subtask> interferers,
                       std::vector<Time>& points);

/// Total higher-priority demand sum_j ceil(t / T_j) * C_j at time t, or
/// nullopt if the sum overflows int64 (distinct from any genuine demand).
[[nodiscard]] std::optional<Time> interference_at(
    Time t, std::span<const Subtask> interferers);

/// MaxSplit by scheduling points: the largest wcet c* in
/// [0, prototype.wcet] such that `hosted` (sorted by priority rank, and
/// schedulable as-is) plus {prototype, wcet = c*} passes the time-demand
/// test.  The candidate's own budget is max over its testing set of
/// t - W(t); each lower-priority hosted subtask caps the candidate at
/// max over its testing set (extended by the candidate's arrival
/// multiples) of floor((t - C_i - W(t)) / ceil(t / T_c)).  Returns 0 for
/// a non-positive deadline or wcet.
///
/// Cost is the testing-set size: sum over hosted subtasks of D_i / T_j.
/// Callers feeding overflow-scale parameters must keep that ratio small.
[[nodiscard]] Time max_admissible_wcet(std::span<const Subtask> hosted,
                                       const Subtask& prototype);

}  // namespace rmts::oracle
