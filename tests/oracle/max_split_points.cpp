#include "oracle/max_split_points.hpp"

#include <algorithm>

#include "common/checked_math.hpp"

namespace rmts::oracle {

namespace {

/// Largest own execution budget of the candidate: max over its testing set
/// of (t - higher-priority interference).
Time max_self_budget(std::span<const Subtask> higher, Time deadline) {
  std::vector<Time> points;
  scheduling_points(deadline, higher, points);
  Time best = 0;
  for (const Time t : points) {
    const auto demand = interference_at(t, higher);
    if (!demand || *demand >= t) continue;  // overflowed demand never fits
    best = std::max(best, t - *demand);
  }
  return best;
}

/// Largest candidate wcet that keeps hosted[index] (interfered by the
/// hosted prefix) schedulable when the candidate interferes with period
/// `candidate_period`:
///   max over testing points t of floor((t - C_i - W(t)) / ceil(t / T_c)),
/// over hosted[index]'s own testing set plus the candidate's arrival
/// multiples below its deadline (where the optimum of the piecewise
/// expression can also sit).
Time max_extra_interference(std::span<const Subtask> hosted, std::size_t index,
                            Time candidate_period) {
  const Subtask& subject = hosted[index];
  const auto higher = hosted.first(index);
  std::vector<Time> points;
  scheduling_points(subject.deadline, higher, points);
  for (Time t = candidate_period; t < subject.deadline;) {
    points.push_back(t);
    if (t > kTimeInfinity - candidate_period) break;
    t += candidate_period;
  }
  Time best = 0;
  for (const Time t : points) {
    const Time avail = t - subject.wcet;
    const auto demand = interference_at(t, higher);
    if (!demand || *demand >= avail) continue;
    best = std::max(best, (avail - *demand) / ceil_div(t, candidate_period));
  }
  return best;
}

}  // namespace

std::vector<Time> scheduling_points(Time deadline,
                                    std::span<const Subtask> interferers) {
  std::vector<Time> points;
  scheduling_points(deadline, interferers, points);
  return points;
}

void scheduling_points(Time deadline, std::span<const Subtask> interferers,
                       std::vector<Time>& points) {
  points.clear();
  points.push_back(deadline);
  for (const Subtask& j : interferers) {
    for (Time t = j.period; t < deadline;) {
      points.push_back(t);
      if (t > kTimeInfinity - j.period) break;  // next multiple not representable
      t += j.period;
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
}

std::optional<Time> interference_at(Time t,
                                    std::span<const Subtask> interferers) {
  Time demand = 0;
  for (const Subtask& j : interferers) {
    const auto term = checked_mul(ceil_div(t, j.period), j.wcet);
    if (!term) return std::nullopt;
    const auto sum = checked_add(demand, *term);
    if (!sum) return std::nullopt;
    demand = *sum;
  }
  return demand;
}

Time max_admissible_wcet(std::span<const Subtask> hosted,
                         const Subtask& prototype) {
  if (prototype.deadline <= 0 || prototype.wcet <= 0) return 0;
  const auto pos_it = std::lower_bound(
      hosted.begin(), hosted.end(), prototype,
      [](const Subtask& a, const Subtask& b) { return a.priority < b.priority; });
  const auto pos = static_cast<std::size_t>(pos_it - hosted.begin());

  Time budget = max_self_budget(hosted.first(pos), prototype.deadline);
  for (std::size_t i = pos; i < hosted.size() && budget > 0; ++i) {
    budget = std::min(budget, max_extra_interference(hosted, i, prototype.period));
  }
  return std::min(budget, prototype.wcet);
}

}  // namespace rmts::oracle
