// Shared types of the repository benchmark (README.md).
//
// The benchmark serves the rmts admission protocol from an in-process
// server::Server and drives it over loopback TCP with one blocking
// server::Client thread per connection (live.cpp).  Every reply is checked
// against an in-process reference: admit verdicts against the same
// Partitioner run here (workloads.cpp), session verdicts by replaying each
// connection's ops through a fresh PartitionSession (replay.cpp).  A traced
// run adds per-layer numbers: replayed calls into each layer's public
// functions, the server's own trace stages, and bench-side spans
// (spans.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/time.hpp"
#include "online/session.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using rmts::Time;

enum class Workload : std::uint8_t { kAdmitSmall, kAdmitLarge, kSessionChurn };

/// Deliberate faults for the self-test: each must fail the run.
enum class Inject : std::uint8_t {
  kNone,
  kCorrupt,  ///< one reply's verdict is flipped before it is checked
  kDrop,     ///< one request's connection is closed before its reply is read
  kShed,     ///< the server runs with a static admission budget of 1
};

/// One pooled admit request and the verdict the reference computed for it.
struct AdmitCase {
  std::string line;  ///< the request as sent, without the newline
  std::vector<std::pair<Time, Time>> pairs;  ///< (wcet, period), wire order
  bool accepted{false};
  std::size_t splits{0};
  std::size_t subtasks{0};
  double normalized_utilization{0.0};
};

struct AdmitWorkload {
  std::size_t processors{0};
  std::vector<AdmitCase> pool;
};

struct ChurnWorkload {
  rmts::online::SessionConfig session;
  /// The session_open request carrying every field of `session` that the
  /// wire protocol exposes, so the replay uses exactly the server's config.
  std::string open_line;
  std::vector<std::pair<Time, Time>> tasks;  ///< admit draws, uniform
  double depart_fraction{0.4};
  /// The fill during set-up stops after this many rejections in a row.
  std::size_t fill_reject_streak{16};
};

/// One executed session op of one connection (ok:true replies only).  Kept
/// small: the log grows with every op and counts toward peak RSS.
struct ChurnOp {
  std::uint64_t ticket{0};  ///< depart: ticket sent; admit: ticket received
  std::uint32_t task{0};    ///< admit: index into ChurnWorkload::tasks
  std::uint32_t seq{0};     ///< the connection's request number
  std::uint16_t parts{0};   ///< admit: chain length received
  bool depart{false};
  bool verdict{false};  ///< admit: accepted; depart: departed
  std::uint8_t phase{0};
};

/// Id of a connection's seq-th request; spans of one request share it.
[[nodiscard]] constexpr std::uint64_t request_id(std::size_t connection,
                                                 std::uint64_t seq) noexcept {
  return (static_cast<std::uint64_t>(connection) << 40) | seq;
}

/// Phases of a live run, by index: set-up, warm-up, then the measured
/// windows, then the drain after the last window.
inline constexpr std::size_t kSetupPhase = 0;
inline constexpr std::size_t kWarmupPhase = 1;
inline constexpr std::size_t kFirstWindow = 2;

[[nodiscard]] const char* workload_name(Workload workload) noexcept;

AdmitWorkload make_admit_workload(Workload workload, std::uint64_t seed);
ChurnWorkload make_churn_workload(std::uint64_t seed);

}  // namespace perfbench
