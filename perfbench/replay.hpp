// The in-process half of the benchmark: the session-churn verdict check,
// and the per-layer replay that re-runs a workload's own lines through
// each layer's public functions on one thread with tracing off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench.hpp"
#include "spans.hpp"

namespace perfbench {

/// Session-churn replay: every connection's executed ops through a fresh
/// PartitionSession with the server's config.
struct ChurnReplay {
  /// Ops whose accepted/ticket/parts/departed differ from the reply, by
  /// phase index.
  std::vector<std::uint64_t> mismatches;
  std::string first_mismatch;
  /// Replay time of every op, per connection, in log order.
  std::vector<std::vector<std::uint32_t>> op_ns;
  // Measured-window ops only:
  std::uint64_t admits{0};
  std::uint64_t accepted{0};
  std::uint64_t split_accepted{0};
  std::uint64_t migrations{0};
  std::uint64_t ops{0};
  /// Normalized session utilization, sampled every 64th measured op of
  /// each connection.
  double utilization_sum{0.0};
  std::uint64_t utilization_samples{0};
};

/// True for ops of the measured windows: phases in [kFirstWindow,
/// phases - 1), where `phases` is the live run's phase count.
[[nodiscard]] bool measured(const ChurnOp& op, std::size_t phases) noexcept;

/// With `spans`, records one span per op of the phases `traced` marks and
/// runs
/// the connections one after another on the calling thread and records
/// one span per measured op; otherwise one thread per connection.
ChurnReplay replay_churn(const ChurnWorkload& workload,
                         const std::vector<std::vector<ChurnOp>>& logs,
                         std::size_t phases, SpanLog* spans,
                         const std::vector<bool>& traced);

/// Mean per-request time of each layer call, in microseconds.
struct LayerTimes {
  std::uint64_t requests{0};
  double decode_us{0.0};     ///< LineDecoder::feed + next
  double parse_us{0.0};      ///< json_parse
  double validate_us{0.0};   ///< TaskSet::from_pairs
  double bound_us{0.0};      ///< Rmts::guaranteed_bound
  double partition_us{0.0};  ///< Partitioner::partition
  double handle_us{0.0};     ///< Router::handle
  bool verdicts_match{true};  ///< every replayed partition matched
};

/// Replays the admit pool in seeded order, whole passes, until at least
/// `seconds` have gone by.
LayerTimes replay_admit_layers(const AdmitWorkload& workload,
                               std::uint64_t seed, double seconds,
                               SpanLog& spans);

/// Replays one connection's session ops as wire lines through a fresh
/// Router, timing the ops of the phases `timed` marks; the others run
/// untimed, to rebuild the session's state.
LayerTimes replay_session_layers(const ChurnWorkload& workload,
                                 const std::vector<ChurnOp>& log,
                                 const std::vector<bool>& timed,
                                 SpanLog& spans);

}  // namespace perfbench
