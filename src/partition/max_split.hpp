// MaxSplit (paper Definition 3): the largest prefix of a (sub)task that a
// processor can still accommodate without any hosted (sub)task missing its
// synthetic deadline.  After assigning that prefix the processor has a
// *bottleneck* (Definition 2): one more tick of top-priority execution time
// would make some hosted subtask unschedulable.  This is the splitting
// primitive of RM-TS, RM-TS/light and the online PartitionSession.
//
// One exact implementation: binary search over ProcessorState::fits(),
// which is monotone in the candidate's wcet (paper Section IV-A suggests
// the search directly).  Each probe is one seeded re-analysis on the SoA
// kernel against the processor's memoized responses, so a call costs
// O(log C) kernel probes and allocates nothing.  The scheduling-point
// method of [22] survives as a test-only oracle (tests/oracle/), which the
// property tests and `rmts_fuzz kernel` compare against.
#pragma once

#include "partition/processor_state.hpp"
#include "tasks/subtask.hpp"

namespace rmts {

/// Maximum wcet c* in [0, prototype.wcet] such that `processor` with
/// {prototype, wcet = c*} added stays fully schedulable under exact RTA.
/// All prototype fields except wcet (priority, period, synthetic deadline)
/// are taken as given.  Requires the processor to be schedulable as-is;
/// returns 0 when nothing fits.  Counts one kMaxSplitCalls and its fits()
/// probes as kMaxSplitProbes.
[[nodiscard]] Time max_admissible_wcet(const ProcessorState& processor,
                                       const Subtask& prototype);

}  // namespace rmts
