#include "partition/max_split.hpp"

#include <algorithm>

#include "common/trace.hpp"

namespace rmts {

Time max_admissible_wcet(const ProcessorState& processor,
                         const Subtask& prototype) {
  // fits() is monotone in the candidate's wcet, so binary search for the
  // largest feasible value.  c = 0 ("assign nothing") is feasible by the
  // caller's invariant that the processor is schedulable as-is; nothing
  // above the synthetic deadline can fit (the response is at least the
  // wcet), which also makes a non-positive deadline or wcet return 0
  // without a probe.
  Time lo = 0;  // highest known-feasible value
  Time hi = std::min(prototype.wcet, prototype.deadline);  // may be feasible
  std::uint64_t probes = 0;
  Subtask candidate = prototype;
  while (lo < hi) {
    const Time mid = lo + (hi - lo + 1) / 2;  // round up so lo advances
    candidate.wcet = mid;
    ++probes;
    if (processor.fits(candidate)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  // One flush per call, like fits() flushes its own counters.
  trace::count2(trace::Counter::kMaxSplitCalls, 1,
                trace::Counter::kMaxSplitProbes, probes);
  return lo;
}

}  // namespace rmts
