#include "partition/max_split.hpp"

#include <algorithm>

#include "common/trace.hpp"
#include "rta/rta_kernel.hpp"

namespace rmts {

namespace {

/// a + b * c for non-negative operands, saturated at kTimeInfinity (every
/// deadline lies below it, so a saturated seed is still a valid "miss").
Time add_mul_sat(Time a, Time b, Time c) noexcept {
  Time product = 0;
  Time sum = 0;
  if (__builtin_mul_overflow(b, c, &product) ||
      __builtin_add_overflow(a, product, &sum)) {
    return kTimeInfinity;
  }
  return sum;
}

/// Largest c in [0, hi] at which one MaxSplit constraint holds -- a
/// response, non-decreasing in the candidate's wcet c, that must meet its
/// deadline -- given that it holds at c = 0.  One analysis at hi, and only
/// if that misses, a binary search below it.  Each analysis at c is seeded
/// with s + step(s) * (c - c_s), where c_s is the largest wcet known to
/// pass and s its response (before any pass, `response`: a lower bound on
/// the response at c = 0).  step(s) is the demand the constraint gains at
/// s per tick of c, so the seed is at most the first iterate from s and a
/// valid lower bound on the response at c.  `analyze(c, seed)` runs one
/// seeded kernel analysis.
template <class Step, class Analyze>
Time max_passing(Time hi, Time response, Step step, Analyze analyze,
                 std::uint64_t& analyses, std::uint64_t& iterations) {
  Time passed = 0;
  const auto passes = [&](Time c) {
    const RtaOutcome outcome =
        analyze(c, add_mul_sat(response, step(response), c - passed));
    ++analyses;
    iterations += static_cast<std::uint64_t>(outcome.iterations);
    if (outcome.schedulable) {
      passed = c;
      response = outcome.response;
    }
    return outcome.schedulable;
  };
  if (passes(hi)) return hi;
  Time top = hi - 1;  // may pass; `passed` is the largest known to pass
  while (passed < top) {
    const Time mid = passed + (top - passed + 1) / 2;  // round up to advance
    if (!passes(mid)) top = mid - 1;
  }
  return passed;
}

}  // namespace

Time max_admissible_wcet(const ProcessorState& processor,
                         const Subtask& prototype) {
  // Nothing above the synthetic deadline can fit (the response is at
  // least the wcet), which also makes a non-positive deadline or wcet
  // return 0 without an analysis.  c = 0 ("assign nothing") is feasible by
  // the caller's invariant that the processor is schedulable as-is.
  Time hi = std::max<Time>(0, std::min(prototype.wcet, prototype.deadline));
  std::uint64_t analyses = 0;
  std::uint64_t iterations = 0;
  if (hi > 0) {
    const std::span<const Subtask> hosted = processor.subtasks();
    const ProcessorState::KernelView view = processor.kernel_view();
    const std::size_t pos =
        rta_kernel_detail::insert_position(hosted, prototype);
    const Time period = prototype.period;

    // The processor stays schedulable iff the candidate meets its deadline
    // and every hosted subtask i >= pos still does; each constraint is
    // monotone in c, so the answer is the minimum over them.  Hosted
    // subtask i's first candidate-aware iterate from its exact
    // candidate-free response s_i is s_i + ceil(s_i/T_c) * c, which may
    // not exceed D_i: an O(1) upper bound per constraint.  A known miss
    // (s_i = infinity) stays a miss whatever the candidate.
    for (std::size_t i = pos; i < hosted.size() && hi > 0; ++i) {
      const Time s = view.responses[i];
      if (s == kTimeInfinity) {
        hi = 0;
      } else if (s > 0) {
        hi = std::min(hi, (hosted[i].deadline - s) / ceil_div(s, period));
      }
    }

    // Lowest priority first: those constraints bind most often, and once
    // one has lowered hi, the others usually pass at it in one analysis.
    const auto hosted_step = [period](Time s) { return ceil_div(s, period); };
    Subtask candidate = prototype;
    for (std::size_t i = hosted.size(); i-- > pos && hi > 0;) {
      hi = max_passing(
          hi, view.responses[i], hosted_step,
          [&](Time c, Time seed) {
            candidate.wcet = c;
            return kernel_response_time_with(hosted, view.soa, i,
                                              hosted[i].wcet,
                                              hosted[i].deadline, candidate,
                                              seed);
          },
          analyses, iterations);
    }
    // The candidate's own deadline under its higher-priority prefix; with
    // none, its response is c itself and hi <= D_c already covers it.  Its
    // response grows one tick per tick of c from any passing fixed point.
    if (pos > 0 && hi > 0) {
      hi = max_passing(
          hi, 0, [](Time) { return Time{1}; },
          [&](Time c, Time seed) {
            return kernel_response_time(hosted, view.soa, pos, c,
                                        prototype.deadline, seed);
          },
          analyses, iterations);
    }
  }
  // One flush per call, like fits() flushes its own counters; each
  // single-constraint analysis is also an admission re-analysis.
  trace::count2(trace::Counter::kMaxSplitCalls, 1,
                trace::Counter::kMaxSplitProbes, analyses);
  trace::count2(trace::Counter::kAdmissionSeededRta, analyses,
                trace::Counter::kAdmissionRtaIterations, iterations);
  return hi;
}

}  // namespace rmts
