#include "partition/processor_state.hpp"

#include <algorithm>
#include <cassert>

#include "common/trace.hpp"

namespace rmts {

namespace {

/// Position of the first hosted subtask with a lower priority than
/// `candidate` (priority ranks are unique per processor: subtasks of one
/// task are never co-located).
std::size_t insert_position(std::span<const Subtask> subtasks,
                            const Subtask& candidate) {
  const auto it = std::lower_bound(
      subtasks.begin(), subtasks.end(), candidate,
      [](const Subtask& a, const Subtask& b) { return a.priority < b.priority; });
  return static_cast<std::size_t>(it - subtasks.begin());
}

}  // namespace

void ProcessorState::add(const Subtask& subtask) {
  const std::size_t pos = insert_position(subtasks_, subtask);
  const auto offset = static_cast<std::ptrdiff_t>(pos);
  subtasks_.insert(subtasks_.begin() + offset, subtask);
  // The cache is materialized lazily on first query, so partitioners that
  // only ever add() (SPA's utilization-threshold admission) pay nothing
  // here.  Once live, it is kept in sync: the new entry's own wcet is a
  // trivial lower bound on its response; the shifted entries keep their
  // previous responses as stale seeds (their interferer set only grew by
  // `subtask`, so the old value is still a lower bound).  Entries before
  // pos are unaffected and stay valid.
  if (cache_ != nullptr) {
    if (!cache_->response.empty()) {
      cache_->response.insert(cache_->response.begin() + offset, subtask.wcet);
      cache_->response_valid.insert(cache_->response_valid.begin() + offset, 0);
      for (std::size_t i = pos + 1; i < subtasks_.size(); ++i) {
        cache_->response_valid[i] = 0;
      }
      cache_->warm_prefix = std::min(cache_->warm_prefix, pos);
    }
    // Keep the SoA mirror in lockstep (O(n - pos), same as the vector
    // inserts above).  If it fell out of step -- e.g. the cache was
    // materialized before the mirror existed -- materialize_cache()
    // rebuilds it on the next kernel query instead.
    if (cache_->soa.size() + 1 == subtasks_.size()) {
      cache_->soa.insert(pos, subtask);
    }
  }
  utilization_ += subtask.utilization();
}

void ProcessorState::remove(std::size_t index) {
  assert(index < subtasks_.size());
  const auto offset = static_cast<std::ptrdiff_t>(index);
  if (cache_ != nullptr) {
    Cache& cache = *cache_;
    // Keep the SoA mirror in lockstep BEFORE the erase: remove() rebuilds
    // the suffix prefix sums from the remaining subtasks, so it needs the
    // post-erase view -- but the consistency check needs the pre-erase
    // sizes.  If the mirror fell out of step, materialize_cache() rebuilds
    // it on the next kernel query instead.
    const bool soa_in_step = cache.soa.size() == subtasks_.size();
    const bool responses_in_step = cache.response.size() == subtasks_.size();
    if (responses_in_step) {
      cache.response.erase(cache.response.begin() + offset);
      cache.response_valid.erase(cache.response_valid.begin() + offset);
    }
    subtasks_.erase(subtasks_.begin() + offset);
    if (soa_in_step) cache.soa.remove(index, subtasks_);
    // Re-seed the shifted suffix from scratch: the interferer set of every
    // entry at or past `index` just SHRANK, so its stale cached response
    // (or kTimeInfinity miss marker) is an upper bound -- exactly the
    // wrong side for a fixed-point seed.  wcet is the unconditional lower
    // bound; the next warm_responses() pass recomputes exact values.
    if (responses_in_step) {
      for (std::size_t i = index; i < subtasks_.size(); ++i) {
        cache.response[i] = subtasks_[i].wcet;
        cache.response_valid[i] = 0;
      }
      cache.warm_prefix = std::min(cache.warm_prefix, index);
    }
  } else {
    subtasks_.erase(subtasks_.begin() + offset);
  }
  // Rebuilding the sum instead of subtracting avoids floating-point drift
  // over a long-lived session's admit/depart churn (a departed task's
  // utilization does not cancel its own admission exactly); O(n) like the
  // erase above.
  utilization_ = 0.0;
  for (const Subtask& s : subtasks_) utilization_ += s.utilization();
}

ProcessorState::Cache& ProcessorState::materialize_cache() const {
  if (cache_ == nullptr) cache_ = std::make_unique<Cache>();
  Cache& cache = *cache_;
  if (cache.response.size() != subtasks_.size()) {
    cache.response.resize(subtasks_.size());
    for (std::size_t i = 0; i < subtasks_.size(); ++i) {
      cache.response[i] = subtasks_[i].wcet;  // lower-bound seed
    }
    cache.response_valid.assign(subtasks_.size(), 0);
    cache.warm_prefix = 0;
  }
  if (cache.soa.size() != subtasks_.size()) {
    cache.soa.assign(subtasks_);
  }
  return cache;
}

void ProcessorState::ensure_response(std::size_t index) const {
  Cache& cache = materialize_cache();
  if (cache.response_valid[index]) {
    trace::count(trace::Counter::kAdmissionCacheHit);
    return;
  }
  trace::count(trace::Counter::kAdmissionCacheMiss);
  // A stale miss stays a miss: interference only grew since it was found.
  if (cache.response[index] != kTimeInfinity) {
    const RtaOutcome outcome = kernel_response_time(
        subtasks_, cache.soa, index, subtasks_[index].wcet,
        subtasks_[index].deadline, cache.response[index]);
    trace::count(trace::Counter::kAdmissionRtaIterations,
                 static_cast<std::uint64_t>(outcome.iterations));
    cache.response[index] = outcome.schedulable ? outcome.response : kTimeInfinity;
  }
  cache.response_valid[index] = 1;
}

void ProcessorState::warm_responses(Cache& cache) const {
  if (cache.warm_prefix == subtasks_.size()) return;
  // One exact-response pass over the invalidated suffix (add() only ever
  // invalidates suffixes), each entry seeded by its own stale lower bound
  // -- the same work the next probe's seeded scan would have done once,
  // now amortized across every probe until the next add().
  std::uint64_t iterations = 0;
  std::uint64_t computed = 0;
  for (std::size_t i = cache.warm_prefix; i < subtasks_.size(); ++i) {
    if (cache.response_valid[i]) continue;
    ++computed;
    // A stale miss stays a miss: interference only grew since it was found.
    if (cache.response[i] != kTimeInfinity) {
      const RtaOutcome outcome = kernel_response_time(
          subtasks_, cache.soa, i, subtasks_[i].wcet, subtasks_[i].deadline,
          cache.response[i]);
      iterations += static_cast<std::uint64_t>(outcome.iterations);
      cache.response[i] = outcome.schedulable ? outcome.response : kTimeInfinity;
    }
    cache.response_valid[i] = 1;
  }
  cache.warm_prefix = subtasks_.size();
  if (computed != 0) {
    trace::count(trace::Counter::kAdmissionCacheMiss, computed);
    trace::count(trace::Counter::kAdmissionRtaIterations, iterations);
  }
}

bool ProcessorState::fits(const Subtask& candidate) const {
  Cache& cache = materialize_cache();
  warm_responses(cache);
  // The candidate under its prefix, then each lower-priority subtask with
  // the candidate as an extra interferer, seeded with the memoized
  // candidate-free responses (now exact after warming, which unlocks the
  // kernel's O(1) first-iterate identity; a cached kTimeInfinity is a
  // known miss and rejects immediately).  The kernel replicates this
  // probe order bit-identically; see rta_kernel.hpp.
  const KernelFit verdict = kernel_fits(subtasks_, cache.soa, cache.response,
                                        candidate, /*seeds_exact=*/true);
  // Counter deltas were accumulated inside the probe and are flushed once
  // here -- fits() runs O(N x M) times per partitioning, so per-subtask
  // trace::count calls would dominate the instrumentation budget.
  trace::count2(trace::Counter::kAdmissionRtaIterations, verdict.iterations,
                trace::Counter::kAdmissionSeededRta, verdict.seeded_calls);
  return verdict.fits;
}

void ProcessorState::fits_batch(std::span<const Subtask> candidates,
                                std::span<KernelFit> verdicts) const {
  assert(candidates.size() == verdicts.size());
  Cache& cache = materialize_cache();
  warm_responses(cache);
  rta_batch_fits(subtasks_, cache.soa, cache.response, candidates, verdicts,
                 /*seeds_exact=*/true);
  std::uint64_t iterations = 0;
  std::uint64_t seeded_calls = 0;
  for (const KernelFit& verdict : verdicts) {
    iterations += verdict.iterations;
    seeded_calls += verdict.seeded_calls;
  }
  trace::count2(trace::Counter::kAdmissionRtaIterations, iterations,
                trace::Counter::kAdmissionSeededRta, seeded_calls);
}

Time ProcessorState::response_time_of(std::size_t index) const {
  assert(index < subtasks_.size());
  ensure_response(index);
  // Callers only query subtasks that were admitted via fits(); the fixed
  // point therefore exists below the deadline.
  assert(cache_->response[index] != kTimeInfinity);
  return cache_->response[index];
}

}  // namespace rmts
