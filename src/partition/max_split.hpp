// MaxSplit (paper Definition 3): the largest prefix of a (sub)task that a
// processor can still accommodate without any hosted (sub)task missing its
// synthetic deadline.  After assigning that prefix the processor has a
// *bottleneck* (Definition 2): one more tick of top-priority execution time
// would make some hosted subtask unschedulable.  This is the splitting
// primitive of RM-TS, RM-TS/light and the online PartitionSession.
//
// One exact implementation, one constraint at a time.  With the candidate
// inserted at priority position p, the processor stays schedulable iff the
// candidate meets its deadline and every hosted subtask i >= p still does;
// each of those constraints is monotone in the candidate's wcet c, so
// c* is the minimum of their individual maxima (paper Section IV-A
// suggests searching c directly).  Each hosted subtask's exact
// candidate-free response bounds its constraint in O(1) (its first
// candidate-aware iterate may not pass its deadline); then each
// constraint, lowest priority first, gets one seeded kernel analysis at
// the current bound and, only if that misses, a binary search of its own
// below it.  A call allocates nothing.  The scheduling-point method of
// [22] survives as a test-only oracle (tests/oracle/), which the property
// tests and `rmts_fuzz kernel` compare against.
#pragma once

#include "partition/processor_state.hpp"
#include "tasks/subtask.hpp"

namespace rmts {

/// Maximum wcet c* in [0, prototype.wcet] such that `processor` with
/// {prototype, wcet = c*} added stays fully schedulable under exact RTA.
/// All prototype fields except wcet (priority, period, synthetic deadline)
/// are taken as given.  Requires the processor to be schedulable as-is;
/// returns 0 when nothing fits.  Counts one kMaxSplitCalls and its
/// single-constraint analyses as kMaxSplitProbes (each also one
/// kAdmissionSeededRta, their iterations as kAdmissionRtaIterations).
[[nodiscard]] Time max_admissible_wcet(const ProcessorState& processor,
                                       const Subtask& prototype);

}  // namespace rmts
