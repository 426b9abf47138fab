#include "online/session.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "partition/splitting.hpp"
#include "rta/rta.hpp"

namespace rmts::online {

namespace {

/// Session priority key: RM order by period, arrival order (ticket) as
/// the tiebreak.  Encoding both into the Subtask's single priority rank
/// keeps every existing comparison (insert_position, fits, the kernel)
/// working unchanged on a population that was never numbered 0..N-1 up
/// front the way batch partitioning numbers it.  period <= kMaxPeriod
/// (< 2^31) fits the high half exactly; the low 32 ticket bits alias only
/// between residents more than 2^32 admissions apart, far beyond any
/// session this serves.
std::uint64_t priority_key(Time period, Ticket ticket) noexcept {
  return (static_cast<std::uint64_t>(period) << 32) |
         (ticket & 0xFFFFFFFFULL);
}

}  // namespace

PartitionSession::PartitionSession(const SessionConfig& config)
    : config_(config) {
  if (config_.processors == 0) config_.processors = 1;
  if (config_.split_granularity < 1) config_.split_granularity = 1;
  if (!(config_.hysteresis >= 0.0) || !std::isfinite(config_.hysteresis)) {
    config_.hysteresis = 0.10;
  }
  processors_.resize(config_.processors);
}

bool PartitionSession::body_safe(std::size_t q,
                                 const Subtask& candidate) const {
  for (const Subtask& s : processors_[q].subtasks()) {
    if (s.kind == SubtaskKind::kBody && candidate.priority < s.priority) {
      return false;
    }
  }
  return true;
}

std::vector<std::size_t> PartitionSession::by_ascending_utilization() const {
  std::vector<std::size_t> order(processors_.size());
  for (std::size_t q = 0; q < order.size(); ++q) order[q] = q;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return processors_[a].utilization() <
                            processors_[b].utilization();
                   });
  return order;
}

std::optional<std::size_t> PartitionSession::find_subtask(std::size_t q,
                                                          TaskId id,
                                                          int part) const {
  const std::span<const Subtask> hosted = processors_[q].subtasks();
  for (std::size_t i = 0; i < hosted.size(); ++i) {
    if (hosted[i].task_id == id && hosted[i].part == part) return i;
  }
  return std::nullopt;
}

void PartitionSession::rollback(TaskId id,
                                const std::vector<std::size_t>& parts) {
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const auto pos = find_subtask(parts[k], id, static_cast<int>(k));
    assert(pos.has_value());
    if (pos) processors_[parts[k]].remove(*pos);
  }
}

AdmitResult PartitionSession::admit(Time wcet, Time period) {
  AdmitResult out;
  if (wcet < 1 || period < 1 || wcet > period) {
    ++rejects_total_;
    out.reason = "task parameters must satisfy 1 <= wcet <= period";
    return out;
  }
  if (period > kMaxPeriod) {
    ++rejects_total_;
    out.reason = "period exceeds the session limit (2^31 - 1)";
    return out;
  }
  if (config_.max_resident != 0 &&
      residents_.size() >= config_.max_resident) {
    ++rejects_total_;
    out.reason = "resident-task limit reached";
    return out;
  }

  const Ticket ticket = next_ticket_;
  const auto id = static_cast<TaskId>(ticket);
  const std::uint64_t priority = priority_key(period, ticket);
  const Task task{wcet, period, id};
  const std::vector<std::size_t> order = by_ascending_utilization();

  // Whole placement, worst fit: the least-utilized processor that both
  // preserves hosted bodies' top-priority invariant and passes exact RTA.
  const Subtask whole = whole_subtask(task, priority);
  for (const std::size_t q : order) {
    if (!body_safe(q, whole)) continue;
    if (!processors_[q].fits(whole)) continue;
    processors_[q].add(whole);
    residents_.emplace_back(ticket,
                            Resident{wcet, period, priority, {q}});
    ++next_ticket_;
    ++admits_total_;
    out.admitted = true;
    out.ticket = ticket;
    out.parts = 1;
    return out;
  }

  if (!config_.allow_splitting) {
    ++rejects_total_;
    out.reason = "no processor admits the task whole";
    return out;
  }

  // Split placement (paper Algorithm 2, online variant): walk the same
  // ascending-utilization order, placing the largest admissible body
  // prefix wherever the piece gets top local priority, until the tail
  // fits somewhere whole.  The whole-fit scan above already probed
  // part 0 everywhere, so the first round skips straight to splitting.
  ChainCursor cursor(task, priority);
  std::vector<std::size_t> parts;
  for (const std::size_t q : order) {
    if (cursor.exhausted()) break;
    const Subtask candidate = cursor.candidate();
    if (candidate.deadline <= 0) break;  // Eq. 1 left nothing to run in
    if (!body_safe(q, candidate)) continue;

    // The remaining piece in full (a tail once something was split off;
    // redundant for part 0, probed above).
    if (cursor.parts_placed() > 0 && processors_[q].fits(candidate)) {
      processors_[q].add(candidate);
      parts.push_back(q);
      cursor.consume_all();
      break;
    }

    // A body may only be created where it gets the highest local
    // priority (Lemma 2): bodies run unpreempted, so downstream pieces
    // have zero release jitter and plain sporadic RTA stays exact.
    // Unlike batch RM-TS this processor is NOT sealed afterwards --
    // body_safe() keeps the premise standing against later arrivals.
    const std::span<const Subtask> hosted = processors_[q].subtasks();
    if (!hosted.empty() && hosted.front().priority < candidate.priority) {
      continue;
    }
    Time prefix = max_admissible_wcet(processors_[q], candidate);
    assert(prefix < candidate.wcet);  // full fit was rejected above
    prefix -= prefix % config_.split_granularity;
    if (prefix <= 0) continue;
    Subtask body = candidate;
    body.wcet = prefix;
    body.kind = SubtaskKind::kBody;
    processors_[q].add(body);
    // Measured response of the body just placed; the top-priority guard
    // makes this equal its wcet (asserted, not assumed), which is what
    // keeps the next piece's synthetic deadline exact.
    const Time response = processors_[q].response_time_of(0);
    assert(response == prefix);
    cursor.consume_body(prefix, response);
    parts.push_back(q);
  }

  if (!cursor.exhausted()) {
    // The partial chain must not linger: a half-admitted task is neither
    // schedulable as requested nor departable by any ticket.
    rollback(id, parts);
    ++rejects_total_;
    out.reason = "no split placement passes exact RTA";
    return out;
  }

  residents_.emplace_back(
      ticket, Resident{wcet, period, priority, std::move(parts)});
  ++next_ticket_;
  ++admits_total_;
  out.admitted = true;
  out.ticket = ticket;
  out.parts = residents_.back().second.parts.size();
  return out;
}

bool PartitionSession::depart(Ticket ticket) {
  const auto it = std::lower_bound(
      residents_.begin(), residents_.end(), ticket,
      [](const auto& entry, Ticket t) { return entry.first < t; });
  if (it == residents_.end() || it->first != ticket) return false;
  const auto id = static_cast<TaskId>(ticket);
  const Resident resident = std::move(it->second);
  residents_.erase(it);
  for (std::size_t k = 0; k < resident.parts.size(); ++k) {
    const auto pos =
        find_subtask(resident.parts[k], id, static_cast<int>(k));
    assert(pos.has_value());
    if (pos) processors_[resident.parts[k]].remove(*pos);
  }
  ++departs_total_;
  if (config_.rebalance_every != 0 &&
      ++departs_since_rebalance_ >= config_.rebalance_every) {
    departs_since_rebalance_ = 0;
    rebalance();
  }
  return true;
}

std::size_t PartitionSession::rebalance() {
  ++rebalance_rounds_total_;
  std::size_t moved = 0;
  if (processors_.size() < 2) return moved;
  while (moved < config_.max_migrations_per_round) {
    std::size_t src = 0;
    std::size_t dst = 0;
    for (std::size_t q = 1; q < processors_.size(); ++q) {
      if (processors_[q].utilization() > processors_[src].utilization()) {
        src = q;
      }
      if (processors_[q].utilization() < processors_[dst].utilization()) {
        dst = q;
      }
    }
    const double spread =
        processors_[src].utilization() - processors_[dst].utilization();
    if (src == dst || spread <= config_.hysteresis) break;

    // Movable migrants: whole residents only (chain pieces stay put --
    // their synthetic deadlines are anchored to measured body responses
    // on specific processors) whose utilization keeps the move monotone
    // (<= spread/2: the spread strictly shrinks and the pair never swaps
    // roles, so passes cannot ping-pong), and whose arrival on dst
    // cannot demote a hosted body.
    probe_candidates_.clear();
    probe_sources_.clear();
    const std::span<const Subtask> hosted = processors_[src].subtasks();
    for (std::size_t i = 0; i < hosted.size(); ++i) {
      const Subtask& s = hosted[i];
      if (s.kind != SubtaskKind::kWhole) continue;
      if (s.utilization() > spread / 2.0) continue;
      if (!body_safe(dst, s)) continue;
      probe_candidates_.push_back(s);
      probe_sources_.push_back(i);
    }
    if (probe_candidates_.empty()) break;

    // One batched exact-RTA probe of every candidate move against the
    // target (the rta_batch_fits multi-probe shape): dst's hosted set,
    // memoized seeds and SoA mirror are set up once for the whole scan.
    probe_verdicts_.resize(probe_candidates_.size());
    processors_[dst].fits_batch(probe_candidates_, probe_verdicts_);

    std::size_t best = probe_candidates_.size();
    for (std::size_t i = 0; i < probe_candidates_.size(); ++i) {
      if (!probe_verdicts_[i].fits) continue;
      if (best == probe_candidates_.size() ||
          probe_candidates_[i].utilization() >
              probe_candidates_[best].utilization()) {
        best = i;
      }
    }
    if (best == probe_candidates_.size()) break;

    // Commit order is what makes "never un-admit" structural: the target
    // admitted the migrant under exact RTA with all its residents
    // (fits_batch above), and only then does the source shed it --
    // removal can only SHRINK interference there, so source residents'
    // response times cannot grow past deadlines they already met.
    const Subtask mover = probe_candidates_[best];
    processors_[dst].add(mover);
    processors_[src].remove(probe_sources_[best]);

    // Update the resident's placement record.  Tickets below 2^32 equal
    // their task_id; past that (4 billion admissions) fall back to a
    // scan keyed on the full priority.
    bool recorded = false;
    const auto it = std::lower_bound(
        residents_.begin(), residents_.end(),
        static_cast<Ticket>(mover.task_id),
        [](const auto& entry, Ticket t) { return entry.first < t; });
    if (it != residents_.end() &&
        static_cast<TaskId>(it->first) == mover.task_id &&
        it->second.priority == mover.priority) {
      it->second.parts[static_cast<std::size_t>(mover.part)] = dst;
      recorded = true;
    } else {
      for (auto& [ticket, resident] : residents_) {
        if (static_cast<TaskId>(ticket) == mover.task_id &&
            resident.priority == mover.priority) {
          resident.parts[static_cast<std::size_t>(mover.part)] = dst;
          recorded = true;
          break;
        }
      }
    }
    assert(recorded);
    (void)recorded;
    ++moved;
    ++migrations_total_;
  }
  return moved;
}

SessionStats PartitionSession::stats() const {
  SessionStats out;
  out.processors = processors_.size();
  out.resident_tasks = residents_.size();
  for (const auto& [ticket, resident] : residents_) {
    (void)ticket;
    out.resident_subtasks += resident.parts.size();
    if (resident.parts.size() > 1) ++out.split_residents;
  }
  out.admits_total = admits_total_;
  out.rejects_total = rejects_total_;
  out.departs_total = departs_total_;
  out.migrations_total = migrations_total_;
  out.rebalance_rounds_total = rebalance_rounds_total_;
  bool first = true;
  for (const ProcessorState& proc : processors_) {
    const double u = proc.utilization();
    out.utilization += u;
    out.min_processor_utilization =
        first ? u : std::min(out.min_processor_utilization, u);
    out.max_processor_utilization =
        first ? u : std::max(out.max_processor_utilization, u);
    first = false;
  }
  out.normalized_utilization =
      out.utilization / static_cast<double>(processors_.size());
  return out;
}

std::vector<PartitionSession::ResidentTask> PartitionSession::residents()
    const {
  std::vector<ResidentTask> out;
  out.reserve(residents_.size());
  for (const auto& [ticket, resident] : residents_) {
    out.push_back({ticket, resident.wcet, resident.period});
  }
  return out;
}

std::vector<std::size_t> PartitionSession::placements(Ticket ticket) const {
  const auto it = std::lower_bound(
      residents_.begin(), residents_.end(), ticket,
      [](const auto& entry, Ticket t) { return entry.first < t; });
  if (it == residents_.end() || it->first != ticket) return {};
  return it->second.parts;
}

std::string PartitionSession::check_invariants() const {
  std::size_t hosted_total = 0;
  for (std::size_t q = 0; q < processors_.size(); ++q) {
    const std::span<const Subtask> hosted = processors_[q].subtasks();
    hosted_total += hosted.size();
    double sum = 0.0;
    std::size_t bodies = 0;
    for (std::size_t i = 0; i < hosted.size(); ++i) {
      sum += hosted[i].utilization();
      if (i > 0 && hosted[i - 1].priority >= hosted[i].priority) {
        return "processor " + std::to_string(q) +
               ": hosted priorities not strictly increasing at position " +
               std::to_string(i);
      }
      if (hosted[i].kind == SubtaskKind::kBody) {
        ++bodies;
        if (i != 0) {
          return "processor " + std::to_string(q) +
                 ": body subtask demoted from top local priority";
        }
      }
    }
    if (bodies > 1) {
      return "processor " + std::to_string(q) + ": hosts " +
             std::to_string(bodies) + " bodies";
    }
    if (std::abs(sum - processors_[q].utilization()) >
        1e-9 * std::max(1.0, sum)) {
      return "processor " + std::to_string(q) +
             ": cached utilization drifted from the hosted sum";
    }
    const ProcessorRta rta = analyze_processor(hosted);
    if (!rta.schedulable) {
      return "processor " + std::to_string(q) +
             ": resident set fails exact RTA (first miss at position " +
             std::to_string(rta.first_miss) + ")";
    }
  }

  std::size_t chain_total = 0;
  for (const auto& [ticket, resident] : residents_) {
    const auto id = static_cast<TaskId>(ticket);
    chain_total += resident.parts.size();
    if (resident.parts.empty()) {
      return "ticket " + std::to_string(ticket) + ": no placements";
    }
    Time placed = 0;
    Time expected_deadline = resident.period;
    for (std::size_t k = 0; k < resident.parts.size(); ++k) {
      const std::size_t q = resident.parts[k];
      if (q >= processors_.size()) {
        return "ticket " + std::to_string(ticket) +
               ": placement on unknown processor";
      }
      const auto pos = find_subtask(q, id, static_cast<int>(k));
      if (!pos) {
        return "ticket " + std::to_string(ticket) + ": chain part " +
               std::to_string(k) + " missing on processor " +
               std::to_string(q);
      }
      const Subtask& s = processors_[q].subtasks()[*pos];
      const SubtaskKind want =
          resident.parts.size() == 1
              ? SubtaskKind::kWhole
              : (k + 1 == resident.parts.size() ? SubtaskKind::kTail
                                                : SubtaskKind::kBody);
      if (s.kind != want) {
        return "ticket " + std::to_string(ticket) + ": chain part " +
               std::to_string(k) + " has the wrong kind";
      }
      if (s.priority != resident.priority || s.period != resident.period) {
        return "ticket " + std::to_string(ticket) + ": chain part " +
               std::to_string(k) + " lost its priority or period";
      }
      if (s.deadline != expected_deadline) {
        return "ticket " + std::to_string(ticket) + ": chain part " +
               std::to_string(k) + " synthetic deadline drifted (Eq. 1)";
      }
      placed += s.wcet;
      // Bodies run at top local priority, so the measured response the
      // deadline chain consumed equals the body's wcet.
      expected_deadline -= s.wcet;
    }
    if (placed != resident.wcet) {
      return "ticket " + std::to_string(ticket) +
             ": chain wcets do not sum to the task wcet";
    }
  }
  if (chain_total != hosted_total) {
    return "resident chains cover " + std::to_string(chain_total) +
           " subtasks but processors host " + std::to_string(hosted_total);
  }
  return {};
}

}  // namespace rmts::online
