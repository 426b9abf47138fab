#include "partition/assignment.hpp"

#include <algorithm>
#include <sstream>

namespace rmts {

std::size_t Assignment::split_task_count() const {
  std::vector<TaskId> ids;
  ids.reserve(subtask_count());
  for (const ProcessorAssignment& proc : processors) {
    for (const Subtask& s : proc.subtasks) ids.push_back(s.task_id);
  }
  // Sorted, each task's parts are adjacent: count the runs of length >= 2.
  std::sort(ids.begin(), ids.end());
  std::size_t split = 0;
  for (std::size_t i = 1; i < ids.size(); ++i) {
    if (ids[i] == ids[i - 1] && (i == 1 || ids[i - 1] != ids[i - 2])) ++split;
  }
  return split;
}

std::size_t Assignment::subtask_count() const {
  std::size_t count = 0;
  for (const ProcessorAssignment& proc : processors) count += proc.subtasks.size();
  return count;
}

double Assignment::assigned_utilization() const {
  double sum = 0.0;
  for (const ProcessorAssignment& proc : processors) sum += proc.utilization();
  return sum;
}

double Assignment::min_processor_utilization() const {
  double min_u = processors.empty() ? 0.0 : processors.front().utilization();
  for (const ProcessorAssignment& proc : processors) {
    min_u = std::min(min_u, proc.utilization());
  }
  return min_u;
}

std::string Assignment::describe() const {
  std::ostringstream os;
  os << (success ? "SUCCESS" : "FAILURE") << '\n';
  for (std::size_t q = 0; q < processors.size(); ++q) {
    os << "P" << q + 1 << " (U=" << processors[q].utilization() << "):";
    for (const Subtask& s : processors[q].subtasks) {
      os << " tau_" << s.task_id;
      if (s.kind == SubtaskKind::kBody) os << "^b" << s.part;
      if (s.kind == SubtaskKind::kTail) os << "^t";
      os << "<C=" << s.wcet << ",T=" << s.period << ",D=" << s.deadline << ">";
    }
    os << '\n';
  }
  if (!unassigned.empty()) {
    os << "unassigned:";
    for (const TaskId id : unassigned) os << " tau_" << id;
    os << '\n';
  }
  return os.str();
}

}  // namespace rmts
