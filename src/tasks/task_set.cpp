#include "tasks/task_set.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace rmts {

namespace {

/// Position of the first task whose id already occurred earlier in
/// `tasks`, or tasks.size() if ids are unique: the earliest position
/// that, with ids sorted together with their positions, follows an equal
/// id.
std::size_t first_repeated_id(const std::vector<Task>& tasks) {
  std::vector<std::pair<TaskId, std::size_t>> ids;
  ids.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) ids.emplace_back(tasks[i].id, i);
  std::sort(ids.begin(), ids.end());
  std::size_t first = tasks.size();
  for (std::size_t k = 1; k < ids.size(); ++k) {
    if (ids[k].first == ids[k - 1].first) first = std::min(first, ids[k].second);
  }
  return first;
}

void validate(const std::vector<Task>& tasks) {
  const std::size_t repeated = first_repeated_id(tasks);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Task& task = tasks[i];
    if (task.period <= 0) {
      throw InvalidTaskError("task " + std::to_string(task.id) +
                             ": period must be positive");
    }
    if (task.wcet <= 0) {
      throw InvalidTaskError("task " + std::to_string(task.id) +
                             ": wcet must be positive");
    }
    if (task.wcet > task.period) {
      throw InvalidTaskError("task " + std::to_string(task.id) +
                             ": wcet exceeds period (U > 1)");
    }
    if (i == repeated) {
      throw InvalidTaskError("duplicate task id " + std::to_string(task.id));
    }
  }
}

}  // namespace

TaskSet::TaskSet(std::vector<Task> tasks) : tasks_(std::move(tasks)) {
  validate(tasks_);
  std::sort(tasks_.begin(), tasks_.end(), [](const Task& a, const Task& b) {
    if (a.period != b.period) return a.period < b.period;
    return a.id < b.id;
  });
}

TaskSet TaskSet::from_pairs(const std::vector<std::pair<Time, Time>>& pairs) {
  std::vector<Task> tasks;
  tasks.reserve(pairs.size());
  TaskId id = 0;
  for (const auto& [wcet, period] : pairs) {
    tasks.push_back(Task{wcet, period, id++});
  }
  return TaskSet(std::move(tasks));
}

double TaskSet::total_utilization() const noexcept {
  double sum = 0.0;
  for (const Task& task : tasks_) sum += task.utilization();
  return sum;
}

double TaskSet::normalized_utilization(std::size_t processors) const noexcept {
  return total_utilization() / static_cast<double>(processors);
}

double TaskSet::max_utilization() const noexcept {
  double max_u = 0.0;
  for (const Task& task : tasks_) max_u = std::max(max_u, task.utilization());
  return max_u;
}

bool TaskSet::all_lighter_than(double threshold) const noexcept {
  return std::all_of(tasks_.begin(), tasks_.end(), [&](const Task& task) {
    return task.utilization() <= threshold;
  });
}

std::vector<Time> TaskSet::periods() const {
  std::vector<Time> result;
  result.reserve(tasks_.size());
  for (const Task& task : tasks_) result.push_back(task.period);
  return result;
}

bool TaskSet::is_harmonic() const noexcept {
  // Tasks are period-sorted, so adjacent divisibility is equivalent to
  // pairwise divisibility: T_i | T_{i+1} for all i chains transitively to
  // T_i | T_j for every i < j.
  for (std::size_t i = 0; i + 1 < tasks_.size(); ++i) {
    if (tasks_[i + 1].period % tasks_[i].period != 0) return false;
  }
  return true;
}

TaskSet TaskSet::scaled_wcets(double factor) const {
  std::vector<Task> scaled = tasks_;
  for (Task& task : scaled) {
    const double exact = static_cast<double>(task.wcet) * factor;
    Time wcet = static_cast<Time>(std::llround(exact));
    wcet = std::max<Time>(1, std::min(wcet, task.period));
    task.wcet = wcet;
  }
  return TaskSet(std::move(scaled));
}

std::string TaskSet::describe() const {
  std::ostringstream os;
  for (const Task& task : tasks_) {
    os << "tau_" << task.id << ": C=" << task.wcet << " T=" << task.period
       << " U=" << task.utilization() << '\n';
  }
  return os.str();
}

}  // namespace rmts
