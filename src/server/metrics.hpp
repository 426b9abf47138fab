// The service's metrics model: per-endpoint recording, and the one
// snapshot both observability surfaces render from.
//
// Metrics holds per-endpoint error counters and a concurrent log-linear
// HDR latency histogram (common/histogram.hpp).  record() is called from
// pool workers on every handled request; all counters are relaxed atomics
// (stats is an observability endpoint, not a synchronization point).  An
// endpoint's request count is its histogram's count, so one snapshot's
// requests and latency count always agree.  The histogram's relative
// bucket width is 2^-5 ~ 3.1%, so reported percentiles are interpolated
// quantiles, and max_micros is exact (CAS max loop inside
// AtomicHistogram).
//
// A `stats` or `metrics` request reads the whole surface once into a
// MetricsSnapshot -- every endpoint, the event loop's RuntimeStats, the
// session registry and the trace layer -- and renders the stats JSON or
// the Prometheus text from it.  Families that differ only in the field
// they print are loops over field tables in metrics.cpp, whose rows name
// each field on both surfaces.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.hpp"
#include "common/trace.hpp"
#include "online/registry.hpp"
#include "server/ops.hpp"

namespace rmts::server {

class JsonWriter;

class Metrics {
 public:
  /// Records one handled request: outcome and end-to-end latency (queue
  /// wait + compute) in microseconds.  Thread-safe, O(1).
  void record(Endpoint endpoint, bool error, std::uint64_t micros) noexcept;

  struct EndpointSnapshot {
    std::uint64_t requests{0};  ///< latency_us.count()
    std::uint64_t errors{0};
    std::uint64_t max_micros{0};
    /// Interpolated HDR quantiles (error <= latency_us.precision());
    /// 0 when no request was recorded.
    double p50_micros{0.0};
    double p90_micros{0.0};
    double p99_micros{0.0};
    double mean_micros{0.0};
    /// The full merged histogram, for exposition and custom quantiles.
    Histogram latency_us{AtomicHistogram::kSubBits};
  };

  [[nodiscard]] EndpointSnapshot snapshot(Endpoint endpoint) const;

  /// snapshot() of every endpoint, indexed by Endpoint.
  [[nodiscard]] std::array<EndpointSnapshot, kEndpointCount> snapshot_all()
      const;

  /// Total requests over all endpoints.
  [[nodiscard]] std::uint64_t total_requests() const;

 private:
  struct PerEndpoint {
    std::atomic<std::uint64_t> errors{0};
    AtomicHistogram latency_us;
  };

  std::array<PerEndpoint, kEndpointCount> endpoints_{};
};

/// One budgeted op class's live overload-control state (stats/metrics).
struct ClassRuntimeStats {
  std::size_t budget{0};        ///< current admission budget
  std::uint64_t in_flight{0};   ///< queued-or-running right now
  std::uint64_t shed{0};        ///< total budget rejections
  std::uint64_t expired{0};     ///< total deadline-expired drops
  int retry_after_ms{0};        ///< hint currently attached to sheds
};

/// Event-loop-side counters surfaced verbatim by the stats endpoint (the
/// router itself cannot see sockets or queues).
struct RuntimeStats {
  std::uint64_t connections_accepted{0};
  std::uint64_t connections_active{0};
  std::uint64_t requests_shed{0};
  std::uint64_t requests_expired{0};
  std::uint64_t batches_dispatched{0};
  std::uint64_t in_flight{0};
  double uptime_seconds{0.0};
  std::size_t workers{0};
  /// Overload-control surface: whether budgets adapt, and per-class state.
  bool adaptive{false};
  std::uint64_t controller_ticks{0};
  std::array<ClassRuntimeStats, kBudgetClassCount> classes{};
};

/// The whole observability surface, each source read exactly once.
struct MetricsSnapshot {
  std::array<Metrics::EndpointSnapshot, kEndpointCount> endpoints{};
  /// Absent when no event loop feeds the router (tests, the fuzzer).
  std::optional<RuntimeStats> runtime;
  std::vector<std::pair<online::SessionId, online::SessionStats>> sessions;
  online::RegistryTotals session_totals;
  bool tracing{false};    ///< compiled in and enabled
  trace::Snapshot trace;  ///< empty when tracing is compiled out
};

/// The stats reply's fields after its prologue: event-loop counters and
/// the overload block (when runtime is set), sessions, per-endpoint
/// counters and quantiles, and the trace stages and counters.
void write_stats(JsonWriter& w, const MetricsSnapshot& snapshot);

/// One session's stats fields (the session_stats reply and the stats
/// reply's per_session rows).
void write_session_stats(JsonWriter& w, const online::SessionStats& stats);

/// Prometheus-style text exposition (text/plain; version 0.0.4):
/// per-endpoint request counters and HDR latency histograms (sparse `le`
/// buckets), event-loop and overload gauges, session gauges, trace
/// counters and per-stage latency summaries.
[[nodiscard]] std::string exposition(const MetricsSnapshot& snapshot);

}  // namespace rmts::server
