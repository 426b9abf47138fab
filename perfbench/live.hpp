// The live half of the benchmark: an in-process Server driven over
// loopback TCP by one blocking Client thread per connection, closed loop
// (each connection sends its next request only after the previous reply).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/trace.hpp"
#include "perfbench.hpp"
#include "server/router.hpp"
#include "spans.hpp"

namespace perfbench {

struct Window {
  double seconds{0.0};
  bool traced{false};
};

/// Host-wide CPU ticks from /proc/stat: all of them, and those the
/// hypervisor stole (this machine wanted to run and another guest ran).
/// Both stay 0 where the file cannot be read.
struct CpuTicks {
  std::uint64_t total{0};
  std::uint64_t steal{0};
};
[[nodiscard]] CpuTicks read_cpu_ticks();
/// Share of the CPU time between two readings that was stolen.
[[nodiscard]] double steal_share(const CpuTicks& from, const CpuTicks& to);

/// Steal at or below this share counts as a calm host.
inline constexpr double kCalmSteal = 0.01;

struct LiveConfig {
  const AdmitWorkload* admit{nullptr};  ///< set for the admit workloads
  const ChurnWorkload* churn{nullptr};  ///< set for session-churn
  std::size_t connections{1};
  std::uint64_t seed{1};
  Inject inject{Inject::kNone};
  /// Set-up (server construction to the first warm-up request) is timed
  /// this many times, after a calm second; the last set-up's server and
  /// sessions are measured.
  std::size_t setups{5};
  /// Before the timed set-ups, a first server runs the workload for a
  /// second, and on while its last second was not calm (more than
  /// kCalmSteal stolen), for at most max_calm_wait_seconds more.
  double max_calm_wait_seconds{10.0};
  /// The measured server's warm-up.
  double warmup_seconds{2.0};
  std::vector<Window> windows;
  /// While fewer than `calm_windows` windows were calm, up to this many
  /// more (untraced, as long as the last) are measured.
  std::size_t extra_windows{0};
  std::size_t calm_windows{0};
  Clock::time_point epoch;  ///< span timestamps count from here
};

/// What the checks saw in one phase, summed over connections.  `ok`
/// counts only replies that matched their reference.
struct PhaseStats {
  std::uint64_t attempted{0};
  std::uint64_t ok{0};
  std::uint64_t mismatch{0};
  std::uint64_t shed{0};
  std::uint64_t expired{0};
  std::uint64_t error{0};      ///< other ok:false replies
  std::uint64_t transport{0};  ///< no reply (connection failed or dropped)
  std::uint64_t accepted{0};   ///< admit: matched replies with accepted:true
  double accepted_utilization{0.0};  ///< admit: sum of their U/M
  std::vector<std::uint32_t> latency_ns;  ///< send -> reply, every reply

  [[nodiscard]] std::uint64_t failed() const noexcept {
    return attempted - ok;
  }
  void merge(const PhaseStats& other);
};

/// Server- and process-side readings taken at a window boundary.
struct Capture {
  rmts::server::RuntimeStats runtime;
  std::shared_ptr<const rmts::trace::Snapshot> trace;  ///< traced boundaries
  double process_cpu_s{0.0};
  double generator_cpu_s{0.0};  ///< sum over the generator threads
  CpuTicks host;
};

/// Window k's requests are LiveResult::phases[kFirstWindow + k].
struct WindowResult {
  Window window;
  double elapsed_s{0.0};
  Capture before;
  Capture after;
};

struct LiveResult {
  double calm_wait_seconds{0.0};  ///< the first server's run
  double calm_steal{0.0};  ///< steal share of its last second
  std::vector<double> setup_seconds;
  std::uint64_t setup_failures{0};
  std::vector<PhaseStats> phases;  ///< by phase index (perfbench.hpp)
  std::vector<WindowResult> windows;
  /// session-churn: each connection's executed ops, in order.
  std::vector<std::vector<ChurnOp>> churn_logs;
  /// Traced windows: one client.request span per request, per connection.
  std::vector<std::unique_ptr<SpanLog>> spans;
  /// Peak resident memory up to the end of the planned windows, less the
  /// session-op logs then held: they are the generator's bookkeeping and
  /// grow with throughput.
  double peak_rss_mb{0.0};
  std::size_t server_workers{0};
};

/// Runs set-up, warm-up and the windows.  Tracing is off except inside
/// traced windows.
LiveResult run_live(const LiveConfig& config);

}  // namespace perfbench
