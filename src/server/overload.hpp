// Adaptive overload control: SLO-driven per-op-class admission budgets.
//
// The server's op classes differ by ~1000x in cost (an `admit` is a few
// hundred microseconds of partitioning; a `robustness` request bisects
// over whole simulations), so one static in-flight cap is simultaneously
// too loose (a burst of heavy ops collapses everyone's p99) and too tight
// (goodput is wasted when the mix is light).  This layer replaces the
// single bound with one admission budget per op class, adapted by a
// monitoring loop in the style of PCC's monitoring intervals: every
// `interval_ms` the event loop feeds the controller one ClassSample per
// class -- interval completions, sheds, live in-flight and the
// interpolated interval p99 read from the existing HDR histograms
// (Histogram::delta_since) -- and the controller moves each budget by
// AIMD toward the largest value that still holds the class's p99 SLO:
//
//   p99 > SLO (or work is stuck: in-flight but zero completions)
//        -> budget *= decrease            (multiplicative back-off)
//   p99 <= SLO and the class actually used its budget
//        -> budget += increase            (additive probing)
//
// Budgets never leave [min_budget, max_budget], so no class starves and
// none monopolizes the pool.  The controller is pure and deterministic --
// no clocks, no sockets -- which is what makes its convergence and
// invariants unit-testable (tests/overload_test.cpp); the server glue
// (server.cpp) owns the timerfd and the histogram snapshots.
//
// Two helpers complete the control loop:
//
//  * retry_after_ms(cls) -- a backlog-drain estimate (Little's law:
//    in-flight / interval service rate) carried by `overloaded` replies so
//    clients back off for roughly as long as the congestion will last
//    instead of hammering a saturated server (client.hpp honors it);
//  * peek_request(line) -- a cheap single-pass scan of a decoded line for
//    its op (looked up in the op table, server/ops.hpp) and optional
//    "deadline_ms" field.  The event loop must classify BEFORE dispatch
//    (the real JSON parse happens on a worker), so the peek does not
//    validate -- but it IS anchored to top-level keys (it tracks nesting
//    depth and tokenizes strings), because a "deadline_ms" matched inside
//    a string value or nested object would not merely misroute a budget:
//    it would make a worker drop a valid request as deadline_expired.  On
//    garbage that never parses anyway, the worker's strict parse still
//    decides semantics.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "server/ops.hpp"

namespace rmts::server {

struct OverloadConfig {
  /// false = budgets stay at their initial values (the static-cap
  /// baseline); the monitoring tick still runs so sheds carry hints and
  /// the stats surface stays live.
  bool adaptive{true};
  /// Monitoring interval; every tick reads one interval's metrics and
  /// moves the budgets at most one AIMD step.
  int interval_ms{100};
  /// Per-class p99 latency SLO (end-to-end: queue wait + compute) in
  /// microseconds.  Defaults reflect the ~1000x cost spread.
  std::array<std::uint64_t, kBudgetClassCount> slo_p99_us{
      20'000,     // admit: sub-ms compute, budget for queueing
      200'000,    // analyze: full RTA detail
      2'000'000,  // robustness: bisection over simulations
      500'000,    // simulate
      20'000,     // session: incremental-RTA churn, admit-like cost
  };
  /// Starvation floor and cap for every budget.
  std::size_t min_budget{1};
  std::size_t max_budget{256};
  /// Initial budget per class (also the static baseline).
  std::size_t initial_budget{64};
  /// Multiplicative decrease factor in (0, 1).
  double decrease{0.7};
  /// Additive increase per compliant interval.
  std::size_t increase{1};
  /// Ceiling for the retry_after_ms hint.
  int max_retry_after_ms{5'000};
};

/// One class's measurements over one monitoring interval.
struct ClassSample {
  std::uint64_t completed{0};  ///< requests finished this interval
  std::uint64_t shed{0};       ///< budget rejections this interval
  std::uint64_t in_flight{0};  ///< live queued-or-running at tick time
  double p99_us{0.0};          ///< interval p99 latency; 0 if none finished
};

/// The pure feedback controller.  Single-threaded by design: the event
/// loop owns it and publishes budgets/hints through atomics (server.cpp).
class OverloadController {
 public:
  /// Clamps the config into validity (interval >= 1 ms, floor <= cap,
  /// decrease in (0,1), initial within [floor, cap]) rather than throwing:
  /// an operator typo should degrade to a sane controller, not kill the
  /// server.
  explicit OverloadController(OverloadConfig config);

  /// One monitoring tick.  Returns the updated budgets (stable reference).
  const std::array<std::size_t, kBudgetClassCount>& tick(
      const std::array<ClassSample, kBudgetClassCount>& samples);

  [[nodiscard]] std::size_t budget(BudgetClass cls) const noexcept {
    return budgets_[static_cast<std::size_t>(cls)];
  }

  /// Backlog-drain estimate from the last tick's sample, for `overloaded`
  /// replies: interval_ms * (in_flight + 1) / completed, clamped to
  /// [interval_ms, max_retry_after_ms].  Monotone in the backlog; the
  /// ceiling applies when nothing completed at all.
  [[nodiscard]] int retry_after_ms(BudgetClass cls) const noexcept {
    return retry_after_ms_[static_cast<std::size_t>(cls)];
  }

  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }

  [[nodiscard]] const OverloadConfig& config() const noexcept {
    return config_;
  }

 private:
  OverloadConfig config_;
  std::array<std::size_t, kBudgetClassCount> budgets_{};
  std::array<int, kBudgetClassCount> retry_after_ms_{};
  std::uint64_t ticks_{0};
};

/// What the event loop can learn about a request without parsing it.
struct RequestPeek {
  /// Budgeted class when `budgeted`; otherwise the line is control-plane
  /// (stats/metrics) or unclassifiable and bypasses class budgets.
  BudgetClass cls{BudgetClass::kAdmit};
  bool budgeted{false};
  /// The op's endpoint (kMalformed when the op is missing or unknown).
  Endpoint endpoint{Endpoint::kMalformed};
  /// Client deadline in milliseconds from arrival; 0 = none.
  std::int64_t deadline_ms{0};
};

/// Single-pass scan for the top-level `"op"` and `"deadline_ms"` keys
/// (depth-anchored: occurrences inside string values or nested containers
/// never match).  Never throws; a line it cannot read returns an
/// un-budgeted peek.
[[nodiscard]] RequestPeek peek_request(std::string_view line) noexcept;

/// Renders {"ok":false,"error":"overloaded","retry_after_ms":N} (no
/// trailing newline).
[[nodiscard]] std::string overloaded_reply(int retry_after_ms);

/// Renders {"ok":false,"error":"deadline_expired","waited_ms":N}: the
/// request's client deadline passed while it sat in the queue, so the
/// server dropped it instead of spending a worker on a reply nobody will
/// read.
[[nodiscard]] std::string deadline_expired_reply(std::int64_t waited_ms);

}  // namespace rmts::server
