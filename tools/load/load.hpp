// Load driver for rmts_serve, shared by the rmts_loadgen tool and the
// bench_e18, bench_e19 and bench_e20 benchmarks.  A tools-side library
// (rmts_load): the shipped server never drives load.
//
// Two modes:
//
//  * closed loop (default, offered_qps == 0): `connections` threads each
//    keep exactly one request outstanding, so offered load adapts to
//    service rate and the measurement is throughput at full utilization.
//    A closed loop can never push the server past saturation -- every
//    client waits for its reply before offering more.
//
//  * open loop (offered_qps > 0): each connection runs a sender/receiver
//    thread pair; the sender emits requests at Poisson (exponential
//    inter-arrival) times whose aggregate rate is offered_qps, pipelining
//    without waiting for replies -- arrivals are independent of service
//    rate, which is what makes driving the server past saturation (and
//    measuring overload control) possible.  Burst phases periodically
//    multiply the arrival rate to model flash crowds.
//
// Either mode can attach per-request deadlines (deadline_ms) and
// cooperate with overload sheds by retrying: the closed loop retries
// inline (Client::request_with_retry); the open loop re-enqueues shed
// requests for the sender once the server's retry_after_ms hint elapses.
//
// Requests are drawn from a pre-generated, pre-encoded pool of task sets,
// so the driver spends its cycles on the wire and the server -- not on
// JSON rendering -- and every run with the same seed replays the same
// request sequence per connection.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/histogram.hpp"

namespace rmts::server {

/// Operation classes of the generated mix, used to key per-op latency
/// reporting in LoadReport.
enum class OpClass : std::uint8_t {
  kAdmit,
  kAnalyze,
  kRobustness,
  kSimulate,
  kStats,
  kSessionAdmit,   ///< session churn mode: one task admitted by ticket
  kSessionDepart,  ///< session churn mode: one resident ticket departed
};
inline constexpr std::size_t kOpClassCount = 7;

inline constexpr std::array<std::string_view, kOpClassCount> kOpClassNames{
    "admit",    "analyze",       "robustness",    "simulate",
    "stats",    "session_admit", "session_depart"};

[[nodiscard]] constexpr std::string_view op_class_name(OpClass op) noexcept {
  return kOpClassNames[static_cast<std::size_t>(op)];
}

/// Relative frequencies of the operations in the generated mix; zero
/// disables an op.  The default is the pure-admit mix E18 sweeps.
struct OpMix {
  double admit{1.0};
  double analyze{0.0};
  double robustness{0.0};
  double simulate{0.0};
  double stats{0.0};
};

struct LoadConfig {
  std::string host{"127.0.0.1"};
  std::uint16_t port{0};
  std::size_t connections{8};
  double seconds{2.0};
  OpMix mix;
  /// Workload of the generated task sets.
  std::size_t tasks{16};
  std::size_t processors{4};
  double normalized_utilization{0.6};
  std::uint64_t seed{42};
  /// Distinct task sets pre-generated and cycled through.
  std::size_t task_pool{64};
  /// Empty = server default (rmts / hc).
  std::string algorithm;
  std::string bound;
  int timeout_ms{10000};

  /// > 0 switches to the open loop: aggregate Poisson arrival rate in
  /// requests/second, split evenly across connections.
  double offered_qps{0.0};
  /// Open-loop burst phases: every burst_period_s, the arrival rate is
  /// multiplied by burst_factor for burst_duration_s.  factor <= 1 or
  /// period <= 0 disables bursting.
  double burst_factor{1.0};
  double burst_period_s{0.0};
  double burst_duration_s{0.0};
  /// > 0 attaches "deadline_ms" to every generated analysis request, so
  /// the server drops it as deadline_expired once it has queued longer.
  std::int64_t deadline_ms{0};
  /// Resend requests the server shed as overloaded (honoring the reply's
  /// retry_after_ms hint), up to max_attempts total tries each.
  bool retry{false};
  int max_attempts{4};

  /// Session churn mode (closed loop only): each connection opens its own
  /// long-lived session (session_open, m = `processors`) and drives an
  /// admit/depart mix against it, tracking the tickets of its live
  /// residents so departs always name a real one.  The `mix` field is
  /// ignored in this mode; per-op tables report kSessionAdmit /
  /// kSessionDepart instead.
  bool session{false};
  /// Fraction of churn ops that are departures (the rest admit).  0 keeps
  /// a grow-only session; 0.5 holds the resident count roughly steady.
  double churn_rate{0.0};
};

/// Aggregated outcome of one run.  "shed" counts explicit overload
/// rejections ({"ok":false,"error":"overloaded"}), "expired" counts
/// deadline_expired drops, "errors" counts every other ok:false reply;
/// transport errors abort the connection's loop and are reported
/// separately.
struct LoadReport {
  std::uint64_t requests{0};  ///< replies received (including retries)
  std::uint64_t offered{0};   ///< first-attempt sends the arrival process made
  std::uint64_t retries{0};   ///< resends after an overloaded reply
  std::uint64_t ok{0};
  std::uint64_t accepted{0};  ///< admit/robustness replies with accepted:true
  std::uint64_t shed{0};
  std::uint64_t expired{0};  ///< deadline_expired drops
  std::uint64_t errors{0};
  std::uint64_t transport_errors{0};
  double elapsed_seconds{0.0};
  /// ok replies split by operation class (goodput accounting: the bench
  /// cares whether the *admit* class kept completing during overload).
  std::array<std::uint64_t, kOpClassCount> per_op_ok{};
  /// HDR latency sketch over every reply (default precision, 2^-5).
  Histogram latency_us;
  /// Same, split by operation class (empty for ops not in the mix).
  std::array<Histogram, kOpClassCount> per_op_latency_us{};

  [[nodiscard]] double qps() const noexcept {
    return elapsed_seconds > 0.0
               ? static_cast<double>(requests) / elapsed_seconds
               : 0.0;
  }

  /// Completed-useful-work rate: ok replies per second.
  [[nodiscard]] double goodput() const noexcept {
    return elapsed_seconds > 0.0 ? static_cast<double>(ok) / elapsed_seconds
                                 : 0.0;
  }

  [[nodiscard]] std::uint64_t max_micros() const noexcept {
    return latency_us.max();
  }

  /// Interpolated quantile over all replies (p in [0, 1]); relative error
  /// at most latency_us.precision().  0 when nothing was recorded.
  [[nodiscard]] double percentile_micros(double p) const noexcept {
    return latency_us.quantile(p);
  }

  /// Accumulates another (per-connection) report; exact on histograms.
  void merge(const LoadReport& other);
};

/// Runs the configured loop (closed, or open when offered_qps > 0) until
/// `seconds` elapse; blocks until every connection thread has joined.
/// Throws InvalidConfigError for a config that cannot run (no
/// connections, empty mix, port 0) and TransportError only if NO
/// connection could be established at all.
[[nodiscard]] LoadReport run_load(const LoadConfig& config);

}  // namespace rmts::server
