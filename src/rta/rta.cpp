#include "rta/rta.hpp"

#include <algorithm>
#include <initializer_list>
#include <optional>

#include "rta/rta_kernel.hpp"

namespace rmts {

namespace {

/// One fixed-point step wcet + sum_j ceil(r / T_j) * C_j, optionally over
/// one extra interferer (compile-time selected so the common no-extra
/// calls carry no dead branches).  nullopt on int64 overflow: the demand
/// then exceeds every representable deadline, so the caller reports
/// "unschedulable".  This is the hottest loop in the repo; the overflow
/// checks compile to a flags test per term, not a second division.
template <bool kHasExtra>
std::optional<Time> total_demand(Time wcet, Time r,
                                 std::span<const Subtask> interferers,
                                 const Subtask* extra) {
  Time next = wcet;
  for (const Subtask& j : interferers) {
    Time term = 0;
    if (__builtin_mul_overflow(ceil_div(r, j.period), j.wcet, &term) ||
        __builtin_add_overflow(next, term, &next)) {
      return std::nullopt;
    }
  }
  if constexpr (kHasExtra) {
    Time term = 0;
    if (__builtin_mul_overflow(ceil_div(r, extra->period), extra->wcet, &term) ||
        __builtin_add_overflow(next, term, &next)) {
      return std::nullopt;
    }
  }
  return next;
}

template <bool kHasExtra>
RtaOutcome response_time_impl(Time wcet, Time deadline,
                              std::span<const Subtask> interferers,
                              const Subtask* extra, Time seed) {
  if (wcet > deadline) return RtaOutcome{false, wcet, 0};

  // Seed with the one-job demand of everyone (a valid lower bound on the
  // response time that typically saves several iterations), raised to the
  // caller's seed when that is larger.
  Time r = wcet;
  for (const Subtask& j : interferers) {
    if (__builtin_add_overflow(r, j.wcet, &r)) {
      return RtaOutcome{false, kTimeInfinity, 0};
    }
  }
  if constexpr (kHasExtra) {
    if (__builtin_add_overflow(r, extra->wcet, &r)) {
      return RtaOutcome{false, kTimeInfinity, 0};
    }
  }
  const Time one_job_sum = r - wcet;  // sum of interferer wcets
  r = std::max(r, seed);

  // Fast path: demand is evaluated only at iterates r <= deadline, where
  // each term ceil(r / T_j) * C_j <= deadline * C_j, so the whole sum is
  // bounded by wcet + deadline * sum_j C_j.  With both factors below 2^31
  // that bound is under 2^31 + 2^62: no overflow is reachable and the
  // classic unchecked loop (bit-identical arithmetic) is safe.  Realistic
  // workloads (periods ~1e6) always take this path; only overflow-scale
  // parameters pay for the checked loop below.
  constexpr Time kNoOverflowBound = Time{1} << 31;
  if (deadline < kNoOverflowBound && one_job_sum < kNoOverflowBound) [[likely]] {
    int iterations = 0;
    while (true) {
      ++iterations;
      if (r > deadline) return RtaOutcome{false, r, iterations};
      Time next = wcet;
      for (const Subtask& j : interferers) {
        next += ceil_div(r, j.period) * j.wcet;
      }
      if constexpr (kHasExtra) {
        next += ceil_div(r, extra->period) * extra->wcet;
      }
      if (next == r) return RtaOutcome{true, r, iterations};
      r = next;  // iterates are strictly increasing until the fixed point
    }
  }

  int iterations = 0;
  while (true) {
    ++iterations;
    if (r > deadline) return RtaOutcome{false, r, iterations};
    const auto next = total_demand<kHasExtra>(wcet, r, interferers, extra);
    if (!next) return RtaOutcome{false, kTimeInfinity, iterations};
    if (*next == r) return RtaOutcome{true, r, iterations};
    r = *next;  // iterates are strictly increasing until the fixed point
  }
}

}  // namespace

RtaOutcome response_time(Time wcet, Time deadline,
                         std::span<const Subtask> interferers) {
  return response_time_impl<false>(wcet, deadline, interferers, nullptr, 0);
}

RtaOutcome response_time_seeded(Time wcet, Time deadline,
                                std::span<const Subtask> interferers,
                                Time seed) {
  return response_time_impl<false>(wcet, deadline, interferers, nullptr, seed);
}

RtaOutcome response_time_with(Time wcet, Time deadline,
                              std::span<const Subtask> interferers,
                              const Subtask& extra, Time seed) {
  return response_time_impl<true>(wcet, deadline, interferers, &extra, seed);
}

ProcessorRta analyze_processor(std::span<const Subtask> subtasks) {
  // The SoA kernel's per-prefix evaluation is bit-identical to calling
  // response_time per prefix (rta_kernel.hpp); the fuzzer's `kernel` mode
  // cross-checks exactly that equivalence.
  return kernel_analyze(subtasks);
}

bool processor_schedulable(std::span<const Subtask> subtasks) {
  return analyze_processor(subtasks).schedulable;
}

bool rm_schedulable_uniprocessor(const TaskSet& tasks) {
  std::vector<Subtask> subtasks;
  subtasks.reserve(tasks.size());
  for (std::size_t rank = 0; rank < tasks.size(); ++rank) {
    subtasks.push_back(whole_subtask(tasks[rank], rank));
  }
  return processor_schedulable(subtasks);
}

}  // namespace rmts
