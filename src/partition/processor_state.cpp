#include "partition/processor_state.hpp"

#include <algorithm>
#include <cassert>

#include "common/checked_math.hpp"
#include "common/trace.hpp"

namespace rmts {

namespace {

/// Slack of fits()'s utilization pre-check above 1.  utilization() is a
/// double: each term wcet/period is rounded (at most three roundings: two
/// conversions and the division) and the running sum adds one rounding
/// per term, so for n terms whose true sum s is at most 1 the computed
/// sum errs by at most about (n + 3) * 2^-53 * s.  Sessions host at most
/// max_session_residents = 4,096 subtasks per processor, which bounds the
/// error by ~4.6e-13; 1e-9 covers every hosted set below ~4 million
/// subtasks.  Without slack, 1,000 x (1, 1000) -- exactly U = 1 and RM
/// schedulable -- sums to 1.0000000000000007 and would be rejected.
constexpr double kUtilizationSlack = 1e-9;

}  // namespace

void ProcessorState::add(const Subtask& subtask) {
  const std::size_t pos = rta_kernel_detail::insert_position(subtasks_, subtask);
  const auto offset = static_cast<std::ptrdiff_t>(pos);
  // The cache is materialized lazily on first query, so partitioners that
  // only ever add() (SPA's utilization-threshold admission) pay nothing
  // here.  Once live, it is kept in step (O(n - pos), like the vector
  // insert).
  if (cache_ != nullptr) {
    Cache& cache = *cache_;
    if (cache.has_probe && cache.probed == subtask) {
      // The last fits() passed on exactly this candidate against exactly
      // this hosted set (any add() or remove() drops the probe), after
      // warming every entry: the candidate's own response and the probe's
      // candidate-aware responses of the shifted suffix are the new exact
      // values.
      assert(cache.warm_prefix == subtasks_.size());
      cache.response.insert(cache.response.begin() + offset,
                            cache.probed_response);
      std::copy(cache.probe.begin() + offset,
                cache.probe.begin() +
                    static_cast<std::ptrdiff_t>(subtasks_.size()),
                cache.response.begin() + offset + 1);
      cache.warm_prefix = subtasks_.size() + 1;
    } else {
      // The new entry's own wcet is a trivial lower bound on its response;
      // the shifted entries keep their previous responses as stale seeds
      // (their interferer set only grew by `subtask`, so the old value is
      // still a lower bound).  Entries before pos are unaffected.
      cache.response.insert(cache.response.begin() + offset, subtask.wcet);
      cache.warm_prefix = std::min(cache.warm_prefix, pos);
    }
    cache.has_probe = false;
    cache.probe.push_back(0);  // the scratch stays as long as the set
    cache.soa.insert(pos, subtask);
  }
  subtasks_.insert(subtasks_.begin() + offset, subtask);
  utilization_ += subtask.utilization();
}

void ProcessorState::remove(std::size_t index) {
  assert(index < subtasks_.size());
  const auto offset = static_cast<std::ptrdiff_t>(index);
  subtasks_.erase(subtasks_.begin() + offset);
  if (cache_ != nullptr) {
    Cache& cache = *cache_;
    cache.has_probe = false;
    cache.probe.pop_back();
    // The mirror rebuilds its suffix prefix sums from the post-erase view.
    cache.soa.remove(index, subtasks_);
    // Re-seed the shifted suffix from scratch: the interferer set of every
    // entry at or past `index` just SHRANK, so its stale cached response
    // (or kTimeInfinity miss marker) is an upper bound -- exactly the
    // wrong side for a fixed-point seed.  wcet is the unconditional lower
    // bound; the next warm() pass raises it to the predecessor bound and
    // recomputes exact values.
    cache.response.erase(cache.response.begin() + offset);
    for (std::size_t i = index; i < subtasks_.size(); ++i) {
      cache.response[i] = subtasks_[i].wcet;
    }
    cache.warm_prefix = std::min(cache.warm_prefix, index);
  }
  // Rebuilding the sum instead of subtracting avoids floating-point drift
  // over a long-lived session's admit/depart churn (a departed task's
  // utilization does not cancel its own admission exactly); O(n) like the
  // erase above.
  utilization_ = 0.0;
  for (const Subtask& s : subtasks_) utilization_ += s.utilization();
}

ProcessorState::Cache& ProcessorState::materialize_cache() const {
  if (cache_ == nullptr) {
    cache_ = std::make_unique<Cache>();
    cache_->response.resize(subtasks_.size());
    for (std::size_t i = 0; i < subtasks_.size(); ++i) {
      cache_->response[i] = subtasks_[i].wcet;  // lower-bound seed
    }
    cache_->probe.resize(subtasks_.size());
    cache_->soa.assign(subtasks_);
  }
  return *cache_;
}

void ProcessorState::warm(Cache& cache, std::size_t end) const {
  // One exact-response pass over the invalidated entries (add() and
  // remove() only ever invalidate suffixes), front to back -- the same
  // work the next probe's seeded scan would have done once, now amortized
  // across every probe until the next add().  Each entry is seeded by the
  // larger of its own stale lower bound and R_{i-1} + C_i, where R_{i-1}
  // is its predecessor's response, exact by the time entry i is reached
  // (the predecessor bound; proof in processor_state.hpp).
  std::uint64_t iterations = 0;
  for (std::size_t i = cache.warm_prefix; i < end; ++i) {
    // A stale miss stays a miss: interference only grew since it was found.
    Time seed = cache.response[i];
    if (seed != kTimeInfinity && i > 0 &&
        cache.response[i - 1] != kTimeInfinity) {
      // Saturated: R_{i-1} + C_i past int64 exceeds every deadline.
      const auto bound = checked_add(cache.response[i - 1], subtasks_[i].wcet);
      seed = bound ? std::max(seed, *bound) : kTimeInfinity;
    }
    if (seed != kTimeInfinity) {
      const RtaOutcome outcome = kernel_response_time(
          subtasks_, cache.soa, i, subtasks_[i].wcet, subtasks_[i].deadline,
          seed);
      iterations += static_cast<std::uint64_t>(outcome.iterations);
      seed = outcome.schedulable ? outcome.response : kTimeInfinity;
    }
    cache.response[i] = seed;
  }
  trace::count2(trace::Counter::kAdmissionCacheMiss, end - cache.warm_prefix,
                trace::Counter::kAdmissionRtaIterations, iterations);
  cache.warm_prefix = end;
}

ProcessorState::Cache& ProcessorState::warm_cache() const {
  Cache& cache = materialize_cache();
  if (cache.warm_prefix < subtasks_.size()) warm(cache, subtasks_.size());
  return cache;
}

bool ProcessorState::fits(const Subtask& candidate) const {
  // A total utilization above 1 is infeasible on one processor, and exact
  // RTA with deadlines <= periods rejects every such set: if the lowest-
  // priority subtask meets R <= D <= T, then R >= C + R * U_hp gives
  // C / T <= C / R <= 1 - U_hp.  So this check changes no verdict, only
  // its cost: no warming, no probe scratch written (the kept probe stays
  // valid for add()) and no RTA iterations.
  if (utilization_ + candidate.utilization() > 1.0 + kUtilizationSlack) {
    trace::count(trace::Counter::kAdmissionUtilizationRejects);
    return false;
  }
  Cache& cache = warm_cache();
  // The candidate under its prefix, then each lower-priority subtask,
  // lowest priority first, with the candidate as an extra interferer,
  // seeded with the memoized candidate-free responses (now exact after
  // warming, which unlocks the kernel's O(1) first-iterate identity; a
  // cached kTimeInfinity is a known miss and rejects on reaching it).
  // Both kernel paths keep this order; see rta_kernel.hpp.
  const KernelFit verdict = kernel_fits(subtasks_, cache.soa, cache.response,
                                        candidate, cache.probe,
                                        /*seeds_exact=*/true);
  // Counter deltas were accumulated inside the probe and are flushed once
  // here -- fits() runs O(N x M) times per partitioning, so per-subtask
  // trace::count calls would dominate the instrumentation budget.
  trace::count2(trace::Counter::kAdmissionRtaIterations, verdict.iterations,
                trace::Counter::kAdmissionSeededRta, verdict.seeded_calls);
  cache.has_probe = verdict.fits;
  if (verdict.fits) {
    cache.probed = candidate;
    cache.probed_response = verdict.response;
  }
  return verdict.fits;
}

void ProcessorState::fits_batch(std::span<const Subtask> candidates,
                                std::span<KernelFit> verdicts) const {
  assert(candidates.size() == verdicts.size());
  Cache& cache = warm_cache();
  rta_batch_fits(subtasks_, cache.soa, cache.response, candidates, verdicts,
                 cache.probe, /*seeds_exact=*/true);
  cache.has_probe = false;  // the scratch holds no one candidate's responses
  std::uint64_t iterations = 0;
  std::uint64_t seeded_calls = 0;
  for (const KernelFit& verdict : verdicts) {
    iterations += verdict.iterations;
    seeded_calls += verdict.seeded_calls;
  }
  trace::count2(trace::Counter::kAdmissionRtaIterations, iterations,
                trace::Counter::kAdmissionSeededRta, seeded_calls);
}

ProcessorState::KernelView ProcessorState::kernel_view() const {
  const Cache& cache = warm_cache();
  return KernelView{cache.soa, cache.response};
}

Time ProcessorState::response_time_of(std::size_t index) const {
  assert(index < subtasks_.size());
  Cache& cache = materialize_cache();
  if (index < cache.warm_prefix) {
    trace::count(trace::Counter::kAdmissionCacheHit);
  } else {
    warm(cache, index + 1);
  }
  // Callers only query subtasks that were admitted via fits(); the fixed
  // point therefore exists below the deadline.
  assert(cache.response[index] != kTimeInfinity);
  return cache.response[index];
}

}  // namespace rmts
