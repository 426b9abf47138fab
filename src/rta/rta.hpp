// Exact response-time analysis (RTA) for constrained-deadline, preemptive
// fixed-priority scheduling on one processor.
//
// This is the admission test that distinguishes RM-TS from its
// threshold-based predecessor SPA1/SPA2 [16]: a (sub)task fits on a
// processor iff after adding it every (sub)task's worst-case response time
// is at most its (synthetic) deadline.
//
// Subtasks of the same task are never co-located, so the interfering set of
// a subtask is exactly the co-located subtasks with smaller parent RM rank,
// each behaving as an independent sporadic interferer (C_j, T_j).  Synthetic
// deadlines already account for cross-processor synchronization (paper
// Section II), which is why plain uniprocessor RTA is sound here (Lemma 4).
#pragma once

#include <span>
#include <vector>

#include "common/time.hpp"
#include "tasks/subtask.hpp"
#include "tasks/task_set.hpp"

namespace rmts {

/// Result of one response-time computation.
struct RtaOutcome {
  bool schedulable{false};
  /// The fixed point R if schedulable; otherwise the first iterate that
  /// exceeded the deadline (a certified lower bound on the true response
  /// time, useful for diagnostics).
  Time response{0};
  /// Number of fixed-point iterations performed.
  int iterations{0};
};

/// Worst-case response time of a job with execution time `wcet` and
/// deadline `deadline`, interfered by the sporadic `interferers`
/// (only their wcet/period fields are read).  Standard fixed-point
/// iteration: R <- wcet + sum_j ceil(R / T_j) * C_j, seeded with the total
/// one-job demand; aborts as unschedulable as soon as an iterate exceeds
/// `deadline` (the iterates are non-decreasing).  All accumulation is
/// overflow-checked: if the demand exceeds int64 the job certainly misses
/// any representable deadline, so the outcome is "not schedulable" with
/// `response == kTimeInfinity` instead of UB.
[[nodiscard]] RtaOutcome response_time(Time wcet, Time deadline,
                                       std::span<const Subtask> interferers);

/// As response_time, with the fixed-point iteration started at
/// max(seed, one-job demand).  `seed` must be a lower bound on the true
/// response time under `interferers` -- e.g. the exact response under any
/// subset of them (interference is monotone, so the old fixed point lies
/// at or below the new one).  Same fixed point, fewer iterations; this is
/// what the ProcessorState admission cache feeds with memoized responses.
[[nodiscard]] RtaOutcome response_time_seeded(Time wcet, Time deadline,
                                              std::span<const Subtask> interferers,
                                              Time seed);

/// As response_time_seeded, with one `extra` interferer considered on top
/// of `interferers` (saves materializing prefix + candidate vectors in the
/// partitioners' admission scans).
[[nodiscard]] RtaOutcome response_time_with(Time wcet, Time deadline,
                                            std::span<const Subtask> interferers,
                                            const Subtask& extra, Time seed);

/// Full-processor analysis result.
struct ProcessorRta {
  bool schedulable{false};
  /// Response time per subtask, parallel to the input span.  Entries after
  /// the first unschedulable subtask are 0 (analysis short-circuits).
  std::vector<Time> response;
  /// Index of the first subtask that misses its deadline, or input size.
  std::size_t first_miss{0};
};

/// Analyzes every subtask on a processor.  `subtasks` must be sorted by
/// strictly increasing `priority` rank (0 = highest first); each entry is
/// checked against its own synthetic deadline.  Evaluated through the
/// structure-of-arrays kernel (rta/rta_kernel.hpp) with outcomes
/// bit-identical to running response_time per prefix.
[[nodiscard]] ProcessorRta analyze_processor(std::span<const Subtask> subtasks);

/// True iff every subtask meets its deadline; convenience over
/// analyze_processor.
[[nodiscard]] bool processor_schedulable(std::span<const Subtask> subtasks);

/// Uniprocessor RMS exact schedulability of a whole task set (every task as
/// an unsplit subtask on one processor).  Used by baselines, by
/// deflatability property tests, and by uniprocessor breakdown search.
[[nodiscard]] bool rm_schedulable_uniprocessor(const TaskSet& tasks);

}  // namespace rmts
