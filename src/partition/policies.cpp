#include "partition/policies.hpp"

#include <cassert>

namespace rmts {

namespace {

/// One thread's processors, grown to the largest m any run on the thread
/// asked for.
struct ThreadProcessors {
  std::vector<ProcessorState> processors;
  bool in_use{false};
};

ThreadProcessors& thread_processors() {
  thread_local ThreadProcessors workspace;
  return workspace;
}

}  // namespace

PartitionWorkspace::PartitionWorkspace(std::size_t m) {
  ThreadProcessors& workspace = thread_processors();
  assert(!workspace.in_use && "PartitionWorkspace is not reentrant");
  if (workspace.processors.size() < m) workspace.processors.resize(m);
  workspace.in_use = true;  // after the only step that can throw
  processors_ = std::span<ProcessorState>(workspace.processors).first(m);
  for (ProcessorState& processor : processors_) processor.clear();
}

PartitionWorkspace::~PartitionWorkspace() {
  thread_processors().in_use = false;
}

// Both overloads sit in the innermost loop of every worst-fit partitioner
// (one scan per placement attempt), so they carry the best utilization in a
// register instead of re-reading processors[best] each comparison, and the
// all-processors overload iterates directly rather than materializing an
// index vector per call.

std::optional<std::size_t> least_utilized_non_full(
    std::span<const ProcessorState> processors,
    const std::vector<std::size_t>& candidates) {
  std::optional<std::size_t> best;
  double best_util = 0.0;
  for (const std::size_t q : candidates) {
    if (processors[q].full()) continue;
    const double util = processors[q].utilization();
    if (!best || util < best_util) {
      best = q;
      best_util = util;
    }
  }
  return best;
}

std::optional<std::size_t> least_utilized_non_full(
    std::span<const ProcessorState> processors) {
  std::optional<std::size_t> best;
  double best_util = 0.0;
  for (std::size_t q = 0; q < processors.size(); ++q) {
    if (processors[q].full()) continue;
    const double util = processors[q].utilization();
    if (!best || util < best_util) {
      best = q;
      best_util = util;
    }
  }
  return best;
}

Assignment finalize_assignment(std::span<const ProcessorState> processors,
                               std::vector<TaskId> unassigned) {
  Assignment result;
  result.success = unassigned.empty();
  result.unassigned = std::move(unassigned);
  result.processors.reserve(processors.size());
  for (const ProcessorState& state : processors) {
    ProcessorAssignment proc;
    proc.subtasks.assign(state.subtasks().begin(), state.subtasks().end());
    result.processors.push_back(std::move(proc));
  }
  return result;
}

}  // namespace rmts
