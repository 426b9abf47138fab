// Mutable per-processor state during partitioning.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "rta/rta.hpp"
#include "rta/rta_kernel.hpp"
#include "tasks/subtask.hpp"

namespace rmts {

/// One processor being filled by a partitioning algorithm.  Keeps its
/// subtasks sorted by priority rank and caches the assigned utilization.
///
/// Admission cache: the exact response time of every hosted subtask is
/// memoized and invalidated only when the set changes at or above its
/// position -- insertion or removal at position p leaves entries before p
/// untouched.  After an add(), invalidated entries keep their stale value:
/// the set only grew, so a response computed under a subset of the current
/// interferers is a valid lower bound and seeds the re-analysis (see
/// response_time_seeded).
/// After a remove() the direction flips -- the interferer set SHRANK, a
/// stale value is an upper bound and a cached miss may now fit -- so
/// remove() re-seeds the suffix from each subtask's own wcet instead
/// (the unconditionally valid lower bound).
/// Re-warming raises every seed to the predecessor bound: entry i's
/// response satisfies R_i >= R_{i-1} + C_i whenever R_{i-1} is finite.
/// Proof: write f_k(t) = C_k + sum_{j<k} ceil(t/T_j) C_j, whose least
/// fixed point is R_k.  For 0 < t < R_{i-1}, f_{i-1}(t) > t (the fixed-
/// point iteration from below would otherwise stop at or below t), and
/// f_i(t) >= C_i + f_{i-1}(t) because subtask i-1 interferes with i at
/// least once; so f_i(t) > t.  On [R_{i-1}, R_{i-1} + C_i),
/// f_i(t) >= C_i + f_{i-1}(R_{i-1}) = C_i + R_{i-1} > t.  Hence no fixed
/// point of f_i lies below R_{i-1} + C_i.  This holds for any hosted set,
/// so it is the valid lower bound after a remove() (R_old minus the
/// departed task's jobs is not one: a removal can shorten the busy
/// period by more than that), and it also tightens the stale seeds that
/// a non-committed add() leaves behind.
/// The accepted probe is committed, not re-derived: a passing fits()
/// computes every lower-priority subtask's response with the candidate
/// added, and add() of exactly that candidate inserts those responses as
/// exact entries instead of invalidating the suffix.
/// This is what lets the worst-fit candidate scans of RM-TS(/light),
/// SPA1/2 and the P-RM baselines, MaxSplit, and the online
/// PartitionSession's churn loop stop re-running full processor RTA from
/// zero on every fits() probe.
///
/// The caches make the const query methods non-reentrant: confine an
/// instance to one thread (partitioning runs are sequential; parallel
/// experiment samples each own their processors).
class ProcessorState {
 public:
  ProcessorState() = default;
  /// Copies drop the memoized caches (derived data, rebuilt lazily): the
  /// branch-and-bound copies in optimal_strict stay cheap and the hot
  /// worst-fit scans over vector<ProcessorState> keep a compact object.
  ProcessorState(const ProcessorState& other)
      : subtasks_(other.subtasks_),
        utilization_(other.utilization_),
        full_(other.full_) {}
  ProcessorState& operator=(const ProcessorState& other) {
    subtasks_ = other.subtasks_;
    utilization_ = other.utilization_;
    full_ = other.full_;
    cache_.reset();
    return *this;
  }
  ProcessorState(ProcessorState&&) = default;
  ProcessorState& operator=(ProcessorState&&) = default;
  ~ProcessorState() = default;

  /// Hosted subtasks, highest priority first.
  [[nodiscard]] std::span<const Subtask> subtasks() const noexcept { return subtasks_; }

  [[nodiscard]] double utilization() const noexcept { return utilization_; }
  [[nodiscard]] bool full() const noexcept { return full_; }
  void mark_full() noexcept { full_ = true; }

  [[nodiscard]] bool empty() const noexcept { return subtasks_.empty(); }

  /// Inserts `subtask` at its priority position.  Caller is responsible for
  /// having verified schedulability (see fits()).  When `subtask` is the
  /// candidate of the last fits() probe, that probe passed, and nothing
  /// changed the hosted set since, its responses become exact cache
  /// entries; any other add() invalidates the cached responses of every
  /// lower-priority hosted subtask.
  void add(const Subtask& subtask);

  /// Removes the hosted subtask at `index` (position in subtasks()).  The
  /// online session's depart path.  Removal shrinks the interferer set of
  /// every lower-priority subtask, so their memoized responses become
  /// stale UPPER bounds -- unsound as seeds for the seeded fixed-point
  /// re-analysis, which converges to the least fixed point only from
  /// below -- and a cached kTimeInfinity "known miss" may now be
  /// schedulable.  The suffix is therefore re-seeded from each subtask's
  /// own wcet rather than keeping stale values the way add() can, and the
  /// next warm() lifts each seed to the predecessor bound R_{i-1} + C_i
  /// (see the class comment); entries before `index` keep their exact
  /// responses (their interferers are all at positions < index and did
  /// not change).  Does not touch full():
  /// whether vacated capacity reopens a sealed processor is the caller's
  /// policy (the batch partitioners' bottleneck argument is not
  /// invalidated by removals they never make).
  void remove(std::size_t index);

  /// Exact-RTA admission: true iff all current subtasks plus `candidate`
  /// meet their (synthetic) deadlines.  Only the candidate and the
  /// lower-priority subtasks are re-analyzed; higher-priority response
  /// times cannot change, and each re-analysis is seeded with the memoized
  /// candidate-free response.  Evaluated through the SoA kernel
  /// (rta/rta_kernel.hpp), bit-identical to the scalar path, with the
  /// lower-priority subtasks checked lowest priority first so that a
  /// failing probe stops early.  A total utilization above 1 rejects
  /// before any analysis (counted as kAdmissionUtilizationRejects): it
  /// is infeasible, so exact RTA would reject it too.  A passing probe is
  /// kept for add() to commit (see add()); a utilization reject leaves
  /// the kept probe as it was.
  [[nodiscard]] bool fits(const Subtask& candidate) const;

  /// Batched admission: one verdict per candidate against the current
  /// hosted set, equivalent to (but cheaper than) calling fits() per
  /// candidate -- the SoA mirror, memoized seeds and trace-counter
  /// flushing are set up once for the whole probe group.  This is the
  /// shape of the worst-fit candidate scan, the robustness bisection and
  /// the server's admit_batch op.  `verdicts.size()` must equal
  /// `candidates.size()`.  Keeps no probe for add() to commit.
  void fits_batch(std::span<const Subtask> candidates,
                  std::span<KernelFit> verdicts) const;

  /// The kernel's view of the hosted set for single-constraint analyses
  /// against it (MaxSplit): the SoA mirror of subtasks() and the exact
  /// candidate-free response of every hosted subtask, kTimeInfinity
  /// marking a known miss.  Computed on demand, like fits() warms them.
  struct KernelView {
    const RtaSoa& soa;
    std::span<const Time> responses;
  };
  [[nodiscard]] KernelView kernel_view() const;

  /// Worst-case response time of the hosted subtask at `index` (position in
  /// subtasks()).  Used to fix the synthetic deadline of a split remainder
  /// (paper Eq. 1) from the *actual* response time of the placed body.
  /// Served from the cache after the first query per hosted set.
  [[nodiscard]] Time response_time_of(std::size_t index) const;

 private:
  /// The memoized analysis state, heap-allocated on the first RTA query so
  /// that (a) purely utilization-driven partitioners (SPA) never pay for
  /// it and (b) sizeof(ProcessorState) stays small -- the worst-fit
  /// policies scan utilization()/full() across a vector<ProcessorState>
  /// in their innermost loop, and inlining four cache vectors there was
  /// measurably slower than the whole cache is worth.
  struct Cache {
    /// response[i]: exact candidate-free response time of subtasks_[i]
    /// for i < warm_prefix, else a lower bound: a stale response from an
    /// earlier (subset) hosted set, or the wcet after a remove().  warm()
    /// raises it to R_{i-1} + C_i before analysing.  kTimeInfinity marks
    /// a known deadline miss (possible when a caller adds past a non-RTA
    /// admission test, as SPA does).
    std::vector<Time> response;
    /// Entries [0, warm_prefix) are exact.  add() and remove() only ever
    /// invalidate suffixes and warm() recomputes in order, so one marker
    /// holds the whole validity state.
    std::size_t warm_prefix{0};
    /// The kernel's scratch for candidate-aware responses, as long as
    /// response.  After a passing fits() probe of `probed` (and until the
    /// next add(), remove() or probe that reaches the kernel), probe[pos,
    /// size) holds the responses of the hosted subtasks from the
    /// candidate's insert position on with the candidate added, and
    /// probed_response the candidate's own; add() of exactly `probed`
    /// commits them.  A failing probe overwrites the scratch from the
    /// bottom up, so it drops the record.
    std::vector<Time> probe;
    Subtask probed;
    Time probed_response{0};
    bool has_probe{false};
    /// Structure-of-arrays mirror of subtasks_ for the RTA kernel,
    /// maintained incrementally by add() and remove().
    RtaSoa soa;
  };

  /// Makes cache.response[0, end) exact: one front-to-back pass over the
  /// invalid entries in [warm_prefix, end), each seeded by the larger of
  /// its own stale lower bound and the predecessor bound R_{i-1} + C_i.
  /// Requires warm_prefix < end.  fits()/fits_batch() warm every entry
  /// before probing:
  /// exact seeds let the kernel derive each seeded re-analysis' first
  /// iterate in O(1) (the fixed-point identity in rta_kernel.cpp), saving
  /// a full time-demand pass per hosted subtask per probe.
  void warm(Cache& cache, std::size_t end) const;

  /// Allocates and seeds the cache on the first RTA query (no-op once
  /// live; add() and remove() keep a live cache in step).  Returns it.
  Cache& materialize_cache() const;

  /// The cache with every response exact: the state every kernel query
  /// starts from.
  Cache& warm_cache() const;

  std::vector<Subtask> subtasks_;
  mutable std::unique_ptr<Cache> cache_;
  double utilization_{0.0};
  bool full_{false};
};

}  // namespace rmts
