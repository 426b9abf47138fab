// Online admission with departures: a long-lived, mutable partition.
//
// Everything else in the repo is batch -- partition a fixed task set,
// answer, forget.  A PartitionSession instead OWNS a live multiprocessor
// assignment and services a stream of admit(task) -> ticket /
// depart(ticket) requests, the shape the ROADMAP's admission-control
// north star actually serves: users join and leave; the partition
// persists.
//
// Design:
//
//  * Admission is exact-RTA worst-fit: processors are probed in
//    ascending-utilization order and the task is placed whole on the
//    first processor whose full hosted set (plus the candidate) passes
//    exact response-time analysis.  Every probe rides the ProcessorState
//    admission cache (PR 1) and the SoA RTA kernel (PR 9): candidate-free
//    responses stay memoized across the whole session, so a probe costs
//    one seeded suffix re-analysis instead of a from-scratch processor
//    RTA.
//
//  * Split-task semantics are preserved online.  When no processor fits
//    the task whole, the session walks the same MaxSplit chain as batch
//    RM-TS (paper Algorithm 2): place the largest admissible body prefix,
//    shrink the synthetic deadline by the body's measured response
//    (Eq. 1), continue with the tail.  Lemma 2's premise -- a body runs
//    at the highest local priority, so its response equals its wcet and
//    downstream pieces see zero release jitter -- is a STANDING invariant
//    here, not a construction-order accident: a processor hosting a body
//    never admits anything that would outrank that body (body_safe()
//    gates every probe), so the invariant survives arbitrary later
//    arrivals.  A consequence worth noting: each processor hosts at most
//    one body, necessarily at top local priority (placing a second body
//    would need to outrank the first, which body_safe forbids).
//
//  * depart(ticket) removes every subtask of the chain via
//    ProcessorState::remove, whose cache invalidation re-seeds shifted
//    entries from their wcets (a removal flips stale cached responses
//    from lower to upper bounds -- see processor_state.hpp).  Compaction
//    of the vacated capacity is LAZY: depart touches only the processors
//    that hosted the chain, and global re-packing is deferred to the
//    bounded rebalance pass instead of eagerly reshuffling on every
//    leave.
//
//  * rebalance() is a worst-fit re-pack with hysteresis: while the
//    utilization spread between the most- and least-loaded processor
//    exceeds `hysteresis`, migrate one whole (never split) resident task
//    from the former to the latter, at most `max_migrations_per_round`
//    per call.  Candidate moves are probed with one batched
//    rta_batch_fits call per round (the multi-probe shape the kernel was
//    built for).  The pass NEVER un-admits a resident task, by
//    construction: a move is committed only after the target processor
//    admits the migrant under exact RTA with all its current residents
//    (fits_batch), and removing the migrant from the source only shrinks
//    interference there, so source residents' response times cannot grow.
//    Choosing a migrant with utilization <= spread/2 keeps the pass
//    monotone (the spread strictly shrinks, source and target never swap
//    roles), so rounds cannot ping-pong a task between two processors.
//
// Thread safety: none.  A session is confined to one thread; the server
// wraps each session in its own mutex (online/registry.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "partition/processor_state.hpp"
#include "tasks/subtask.hpp"

namespace rmts::online {

/// Opaque handle for one admitted task, unique over the session lifetime.
using Ticket = std::uint64_t;

struct SessionConfig {
  std::size_t processors{4};
  /// Try split placement when no processor admits the task whole.
  bool allow_splitting{true};
  /// Body prefixes are rounded down to a multiple of this (>= 1 tick).
  Time split_granularity{1};
  /// Run one rebalance pass automatically after this many departures
  /// (0 disables; rebalance() can always be called explicitly).
  std::size_t rebalance_every{16};
  /// Migration budget per rebalance pass.
  std::size_t max_migrations_per_round{4};
  /// Utilization spread (max - min over processors) below which rebalance
  /// leaves the assignment alone.
  double hysteresis{0.10};
  /// Hard cap on resident tasks; 0 = unbounded.
  std::size_t max_resident{0};
};

/// Outcome of one admit(): on success a ticket and the chain length
/// (1 = placed whole); on rejection a reason.  Rejection is a normal
/// outcome (the set is full), not an error.
struct AdmitResult {
  bool admitted{false};
  Ticket ticket{0};
  std::size_t parts{0};
  std::string reason;
};

struct SessionStats {
  std::size_t processors{0};
  std::size_t resident_tasks{0};
  std::size_t resident_subtasks{0};
  std::size_t split_residents{0};  ///< residents currently split
  std::uint64_t admits_total{0};   ///< successful admissions
  std::uint64_t rejects_total{0};
  std::uint64_t departs_total{0};
  std::uint64_t migrations_total{0};
  std::uint64_t rebalance_rounds_total{0};
  double utilization{0.0};             ///< sum over processors
  double normalized_utilization{0.0};  ///< utilization / processors
  double min_processor_utilization{0.0};
  double max_processor_utilization{0.0};
};

class PartitionSession {
 public:
  /// Periods a session accepts are bounded by the kernel's fast regime
  /// (< 2^31); see admit().
  static constexpr Time kMaxPeriod = (Time{1} << 31) - 1;

  explicit PartitionSession(const SessionConfig& config);

  /// Admits a sporadic task (implicit deadline = period) if some
  /// placement -- whole or split -- passes exact RTA; otherwise leaves
  /// the assignment untouched (a partially placed chain is rolled back)
  /// and reports the rejection reason.  Requires 1 <= wcet <= period <=
  /// kMaxPeriod; out-of-range parameters reject rather than throw, so a
  /// serving layer can forward client input directly.
  AdmitResult admit(Time wcet, Time period);

  /// Removes the ticket's task (all chain pieces).  False for a ticket
  /// that is unknown or already departed.  May trigger an automatic
  /// rebalance pass (SessionConfig::rebalance_every).
  bool depart(Ticket ticket);

  /// One bounded re-pack pass; returns the number of migrations
  /// performed.  Never un-admits a resident task (see file comment).
  std::size_t rebalance();

  [[nodiscard]] SessionStats stats() const;

  [[nodiscard]] const SessionConfig& config() const noexcept {
    return config_;
  }

  // ---- introspection for tests, the fuzzer and the CLI replay ----

  [[nodiscard]] std::span<const ProcessorState> processors() const noexcept {
    return processors_;
  }

  /// The live resident set as (ticket, wcet, period) rows.
  struct ResidentTask {
    Ticket ticket{0};
    Time wcet{0};
    Time period{0};
  };
  [[nodiscard]] std::vector<ResidentTask> residents() const;

  /// Where each piece of `ticket` currently lives; empty for unknown
  /// tickets.  placements()[k] hosts chain part k.
  [[nodiscard]] std::vector<std::size_t> placements(Ticket ticket) const;

  /// Full structural + analytical self-check: per-processor priority
  /// order and exact-RTA schedulability, utilization accounting, chain
  /// consistency (wcets sum to the task's, at most one body per
  /// processor and only at top local priority, tail deadline == period -
  /// sum of body responses).  Returns an empty string when every
  /// invariant holds, else a description of the first violation.  O(sum
  /// of processor RTA) -- meant for tests and the fuzzer, not the admit
  /// hot path.
  [[nodiscard]] std::string check_invariants() const;

 private:
  struct Resident {
    Time wcet{0};
    Time period{0};
    std::uint64_t priority{0};
    /// Processor hosting chain part k, in chain order.
    std::vector<std::size_t> parts;
  };

  /// True iff admitting `candidate` on processor `q` cannot demote a
  /// hosted body from its top local priority (Lemma 2's premise).
  [[nodiscard]] bool body_safe(std::size_t q,
                               const Subtask& candidate) const;

  /// Processor indices sorted by ascending utilization (worst fit),
  /// ties by index for determinism.
  [[nodiscard]] std::vector<std::size_t> by_ascending_utilization() const;

  /// Finds the hosted position of (task_id, part) on processor q.
  [[nodiscard]] std::optional<std::size_t> find_subtask(
      std::size_t q, TaskId id, int part) const;

  /// Removes every placed piece of a partially admitted chain.
  void rollback(TaskId id, const std::vector<std::size_t>& parts);

  SessionConfig config_;
  std::vector<ProcessorState> processors_;
  /// Resident bookkeeping keyed by ticket.  Tickets are handed out in
  /// increasing order, so push_back keeps this sorted for free; lookup is
  /// a binary search and erase is one contiguous move.
  std::vector<std::pair<Ticket, Resident>> residents_;
  Ticket next_ticket_{1};
  std::size_t departs_since_rebalance_{0};
  std::uint64_t admits_total_{0};
  std::uint64_t rejects_total_{0};
  std::uint64_t departs_total_{0};
  std::uint64_t migrations_total_{0};
  std::uint64_t rebalance_rounds_total_{0};
  /// Scratch for the rebalance batch probe (allocation-free steady state).
  mutable std::vector<Subtask> probe_candidates_;
  mutable std::vector<KernelFit> probe_verdicts_;
  mutable std::vector<std::size_t> probe_sources_;
};

}  // namespace rmts::online
