// Small shared helpers for partitioning algorithms: processor-selection
// policies, the per-thread processor workspace and conversion of working
// state into the public Assignment.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "partition/assignment.hpp"
#include "partition/processor_state.hpp"

namespace rmts {

/// Worst-fit choice among a candidate index set: the non-full processor
/// with minimal assigned utilization, ties broken towards the smallest
/// index.  Pass the full index range for RM-TS/light; RM-TS passes only
/// the normal processors.
[[nodiscard]] std::optional<std::size_t> least_utilized_non_full(
    std::span<const ProcessorState> processors,
    const std::vector<std::size_t>& candidates);

/// Convenience overload over all processors.
[[nodiscard]] std::optional<std::size_t> least_utilized_non_full(
    std::span<const ProcessorState> processors);

/// The m processors of one batch partitioning run, borrowed from a
/// workspace owned by the calling thread.  Every processor is handed out
/// cleared (ProcessorState::clear()): no result is cached, each run
/// analyses its input from scratch, but the buffers of earlier runs on the
/// thread keep their capacity, so a run no larger than an earlier one
/// allocates nothing for its processors.  processors() is exactly m long;
/// processors that an earlier, larger run left behind stay out of view.
///
/// Not reentrant: one PartitionWorkspace per thread at a time (no
/// partitioner runs another one today).  An in-use flag, reset by the
/// destructor also when a run throws, asserts this.
///
/// Retention: processor q keeps buffers for the most subtasks it ever
/// hosted on this thread, at 88 B per subtask (48 B Subtask, two 8 B
/// responses, 24 B SoA mirror: 4 B period, 4 B wcet, 8 B multiplier,
/// 8 B prefix sum; sizeof on x86-64).  Under the server's limits (256
/// processors, 512 tasks, one subtask per task and processor) that is at
/// most 256 x 513 x 88 B, about 11.5 MB per thread, and geometric vector
/// growth keeps capacity below twice it; perfbench's admit shapes (M = 16,
/// N = 64) retain about 11 KB.
class PartitionWorkspace {
 public:
  explicit PartitionWorkspace(std::size_t m);
  ~PartitionWorkspace();
  PartitionWorkspace(const PartitionWorkspace&) = delete;
  PartitionWorkspace& operator=(const PartitionWorkspace&) = delete;

  [[nodiscard]] std::span<ProcessorState> processors() const noexcept {
    return processors_;
  }

 private:
  std::span<ProcessorState> processors_;
};

/// Copies working processor states into the immutable result.
[[nodiscard]] Assignment finalize_assignment(
    std::span<const ProcessorState> processors, std::vector<TaskId> unassigned);

}  // namespace rmts
