// The stats reply and text exposition renderers as they stood before the
// metrics snapshot (server/metrics.hpp) replaced them, kept verbatim as
// the oracle the snapshot renderers are held to byte for byte.  Each
// reads its sources itself, as the old router did: `Metrics` per
// endpoint, the runtime callback, the session registry and the trace
// layer.  The one edit: the stats block qualifies its write_session_stats
// call, which argument-dependent lookup would otherwise also find in
// rmts::server.  Header-only, so rmts_oracle itself stays free of the
// server library: include it from targets that link both.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.hpp"
#include "online/registry.hpp"
#include "server/json.hpp"
#include "server/metrics.hpp"

namespace rmts::oracle::stats_render {

using namespace rmts::server;  // NOLINT: verbatim copies name these bare

inline void write_session_stats(JsonWriter& w, const online::SessionStats& stats) {
  w.key("processors");
  w.value(stats.processors);
  w.key("resident_tasks");
  w.value(stats.resident_tasks);
  w.key("resident_subtasks");
  w.value(stats.resident_subtasks);
  w.key("split_residents");
  w.value(stats.split_residents);
  w.key("admits");
  w.value(stats.admits_total);
  w.key("rejects");
  w.value(stats.rejects_total);
  w.key("departs");
  w.value(stats.departs_total);
  w.key("migrations");
  w.value(stats.migrations_total);
  w.key("rebalance_rounds");
  w.value(stats.rebalance_rounds_total);
  w.key("utilization");
  w.value(stats.utilization);
  w.key("normalized_utilization");
  w.value(stats.normalized_utilization);
  w.key("min_processor_utilization");
  w.value(stats.min_processor_utilization);
  w.key("max_processor_utilization");
  w.value(stats.max_processor_utilization);
}

inline void write_endpoint_stats(JsonWriter& w, const Metrics& metrics,
                          Endpoint endpoint) {
  const Metrics::EndpointSnapshot snap = metrics.snapshot(endpoint);
  w.key(endpoint_name(endpoint));
  w.begin_object();
  w.key("requests");
  w.value(snap.requests);
  w.key("errors");
  w.value(snap.errors);
  w.key("p50_us");
  w.value(snap.p50_micros);
  w.key("p90_us");
  w.value(snap.p90_micros);
  w.key("p99_us");
  w.value(snap.p99_micros);
  w.key("mean_us");
  w.value(snap.mean_micros);
  w.key("max_us");
  w.value(snap.max_micros);
  w.end_object();
}

/// Live overload-control state: the adaptive flag, tick count and every
/// budgeted class's budget / in-flight / shed / expired / retry hint.
inline void write_overload_stats(JsonWriter& w, const RuntimeStats& runtime) {
  w.key("overload");
  w.begin_object();
  w.key("adaptive");
  w.value(runtime.adaptive);
  w.key("controller_ticks");
  w.value(runtime.controller_ticks);
  w.key("requests_expired");
  w.value(runtime.requests_expired);
  w.key("classes");
  w.begin_object();
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    const ClassRuntimeStats& cls = runtime.classes[c];
    w.key(budget_class_name(static_cast<BudgetClass>(c)));
    w.begin_object();
    w.key("budget");
    w.value(static_cast<std::uint64_t>(cls.budget));
    w.key("in_flight");
    w.value(cls.in_flight);
    w.key("shed");
    w.value(cls.shed);
    w.key("expired");
    w.value(cls.expired);
    w.key("retry_after_ms");
    w.value(cls.retry_after_ms);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

/// Cross-layer stage timers and counters, appended to the stats reply
/// when the tracing layer is compiled in (common/trace.hpp).
inline void write_trace_stats(JsonWriter& w) {
  w.key("tracing");
  w.value(trace::compiled_in() && trace::enabled());
  if (!trace::compiled_in()) return;
  const trace::Snapshot snap = trace::snapshot();
  w.key("stages");
  w.begin_object();
  for (std::size_t s = 0; s < trace::kStageCount; ++s) {
    const trace::StageSnapshot& stage = snap.stages[s];
    if (stage.count == 0) continue;
    w.key(trace::stage_name(static_cast<trace::Stage>(s)));
    w.begin_object();
    w.key("count");
    w.value(stage.count);
    w.key("total_us");
    w.value(static_cast<double>(stage.total_ns) / 1000.0);
    w.key("mean_us");
    w.value(stage.mean_ns() / 1000.0);
    w.key("p50_us");
    w.value(stage.latency_ns.quantile(0.50) / 1000.0);
    w.key("p99_us");
    w.value(stage.latency_ns.quantile(0.99) / 1000.0);
    w.key("max_us");
    w.value(static_cast<double>(stage.max_ns) / 1000.0);
    w.end_object();
  }
  w.end_object();
  w.key("counters");
  w.begin_object();
  for (std::size_t c = 0; c < trace::kCounterCount; ++c) {
    w.key(trace::counter_name(static_cast<trace::Counter>(c)));
    w.value(snap.counters[c]);
  }
  w.end_object();
}

// ------------------------------------------------- text exposition ------

/// Prometheus floats: integral values print bare, others via json_number
/// (shortest round-trip decimal; never inf/nan here).
inline std::string prom_number(double value) {
  if (value == static_cast<double>(static_cast<std::int64_t>(value))) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  return json_number(value);
}

inline void expose_endpoints(std::ostringstream& out, const Metrics& metrics) {
  out << "# TYPE rmts_requests_total counter\n";
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    const auto endpoint = static_cast<Endpoint>(e);
    const Metrics::EndpointSnapshot snap = metrics.snapshot(endpoint);
    out << "rmts_requests_total{endpoint=\"" << endpoint_name(endpoint)
        << "\"} " << snap.requests << '\n';
  }
  out << "# TYPE rmts_request_errors_total counter\n";
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    const auto endpoint = static_cast<Endpoint>(e);
    const Metrics::EndpointSnapshot snap = metrics.snapshot(endpoint);
    out << "rmts_request_errors_total{endpoint=\"" << endpoint_name(endpoint)
        << "\"} " << snap.errors << '\n';
  }
  // Sparse HDR histogram: only non-empty buckets are emitted (cumulative,
  // as Prometheus `le` semantics require), plus the mandatory +Inf.
  out << "# TYPE rmts_request_latency_us histogram\n";
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    const auto endpoint = static_cast<Endpoint>(e);
    const Metrics::EndpointSnapshot snap = metrics.snapshot(endpoint);
    if (snap.requests == 0) continue;
    const std::string label{endpoint_name(endpoint)};
    for (const Histogram::Bucket& bucket : snap.latency_us.nonzero_buckets()) {
      out << "rmts_request_latency_us_bucket{endpoint=\"" << label
          << "\",le=\"" << bucket.upper << "\"} " << bucket.cumulative << '\n';
    }
    out << "rmts_request_latency_us_bucket{endpoint=\"" << label
        << "\",le=\"+Inf\"} " << snap.latency_us.count() << '\n';
    out << "rmts_request_latency_us_sum{endpoint=\"" << label << "\"} "
        << snap.latency_us.sum() << '\n';
    out << "rmts_request_latency_us_count{endpoint=\"" << label << "\"} "
        << snap.latency_us.count() << '\n';
  }
}

inline void expose_runtime(std::ostringstream& out, const RuntimeStats& runtime) {
  out << "# TYPE rmts_uptime_seconds gauge\n"
      << "rmts_uptime_seconds " << prom_number(runtime.uptime_seconds) << '\n'
      << "# TYPE rmts_workers gauge\n"
      << "rmts_workers " << runtime.workers << '\n'
      << "# TYPE rmts_connections_accepted_total counter\n"
      << "rmts_connections_accepted_total " << runtime.connections_accepted
      << '\n'
      << "# TYPE rmts_connections_active gauge\n"
      << "rmts_connections_active " << runtime.connections_active << '\n'
      << "# TYPE rmts_requests_shed_total counter\n"
      << "rmts_requests_shed_total " << runtime.requests_shed << '\n'
      << "# TYPE rmts_requests_expired_total counter\n"
      << "rmts_requests_expired_total " << runtime.requests_expired << '\n'
      << "# TYPE rmts_batches_dispatched_total counter\n"
      << "rmts_batches_dispatched_total " << runtime.batches_dispatched << '\n'
      << "# TYPE rmts_requests_in_flight gauge\n"
      << "rmts_requests_in_flight " << runtime.in_flight << '\n';

  // Overload-control surface: live budgets and per-class counters, so a
  // dashboard can watch the controller breathe in production.
  out << "# TYPE rmts_overload_adaptive gauge\n"
      << "rmts_overload_adaptive " << (runtime.adaptive ? 1 : 0) << '\n'
      << "# TYPE rmts_overload_controller_ticks_total counter\n"
      << "rmts_overload_controller_ticks_total " << runtime.controller_ticks
      << '\n';
  out << "# TYPE rmts_class_budget gauge\n";
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    out << "rmts_class_budget{class=\""
        << budget_class_name(static_cast<BudgetClass>(c)) << "\"} "
        << runtime.classes[c].budget << '\n';
  }
  out << "# TYPE rmts_class_in_flight gauge\n";
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    out << "rmts_class_in_flight{class=\""
        << budget_class_name(static_cast<BudgetClass>(c)) << "\"} "
        << runtime.classes[c].in_flight << '\n';
  }
  out << "# TYPE rmts_class_shed_total counter\n";
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    out << "rmts_class_shed_total{class=\""
        << budget_class_name(static_cast<BudgetClass>(c)) << "\"} "
        << runtime.classes[c].shed << '\n';
  }
  out << "# TYPE rmts_class_expired_total counter\n";
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    out << "rmts_class_expired_total{class=\""
        << budget_class_name(static_cast<BudgetClass>(c)) << "\"} "
        << runtime.classes[c].expired << '\n';
  }
  out << "# TYPE rmts_class_retry_after_ms gauge\n";
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    out << "rmts_class_retry_after_ms{class=\""
        << budget_class_name(static_cast<BudgetClass>(c)) << "\"} "
        << runtime.classes[c].retry_after_ms << '\n';
  }
}

/// Online-session gauges: per-session resident tasks / utilization /
/// migrations (labelled by session id) plus aggregate op totals.  The
/// aggregates come from the registry's RegistryTotals, which fold in
/// closed sessions, so the `_total` series are monotone; the per-session
/// labelled series simply disappear when their session closes.
inline void expose_sessions(
    std::ostringstream& out,
    const std::vector<std::pair<online::SessionId, online::SessionStats>>&
        rows,
    const online::RegistryTotals& totals) {
  out << "# TYPE rmts_sessions_open gauge\n"
      << "rmts_sessions_open " << rows.size() << '\n';
  out << "# TYPE rmts_session_resident_tasks gauge\n";
  for (const auto& [sid, stats] : rows) {
    out << "rmts_session_resident_tasks{session=\"" << sid << "\"} "
        << stats.resident_tasks << '\n';
  }
  out << "# TYPE rmts_session_utilization gauge\n";
  for (const auto& [sid, stats] : rows) {
    out << "rmts_session_utilization{session=\"" << sid << "\"} "
        << prom_number(stats.utilization) << '\n';
  }
  out << "# TYPE rmts_session_migrations_total counter\n";
  for (const auto& [sid, stats] : rows) {
    out << "rmts_session_migrations_total{session=\"" << sid << "\"} "
        << stats.migrations_total << '\n';
  }
  out << "# TYPE rmts_session_admits_total counter\n"
      << "rmts_session_admits_total " << totals.admits_total << '\n'
      << "# TYPE rmts_session_rejects_total counter\n"
      << "rmts_session_rejects_total " << totals.rejects_total << '\n'
      << "# TYPE rmts_session_departs_total counter\n"
      << "rmts_session_departs_total " << totals.departs_total << '\n';
}

inline void expose_trace(std::ostringstream& out) {
  if (!trace::compiled_in()) return;
  const trace::Snapshot snap = trace::snapshot();
  out << "# TYPE rmts_trace_events_total counter\n";
  for (std::size_t c = 0; c < trace::kCounterCount; ++c) {
    out << "rmts_trace_events_total{counter=\""
        << trace::counter_name(static_cast<trace::Counter>(c)) << "\"} "
        << snap.counters[c] << '\n';
  }
  const std::uint64_t posted =
      snap.counter(trace::Counter::kPoolTasksPosted);
  const std::uint64_t started =
      snap.counter(trace::Counter::kPoolTasksStarted);
  out << "# TYPE rmts_pool_queue_depth gauge\n"
      << "rmts_pool_queue_depth " << (posted > started ? posted - started : 0)
      << '\n';
  // Per-stage latency as a summary (count/sum plus key quantiles); the
  // full per-stage HDR buckets would multiply the payload ~16x for little
  // scrape value.
  out << "# TYPE rmts_stage_latency_ns summary\n";
  for (std::size_t s = 0; s < trace::kStageCount; ++s) {
    const trace::StageSnapshot& stage = snap.stages[s];
    if (stage.count == 0) continue;
    const std::string_view name =
        trace::stage_name(static_cast<trace::Stage>(s));
    for (const double q : {0.5, 0.9, 0.99}) {
      out << "rmts_stage_latency_ns{stage=\"" << name << "\",quantile=\""
          << prom_number(q) << "\"} "
          << prom_number(stage.latency_ns.quantile(q)) << '\n';
    }
    out << "rmts_stage_latency_ns_sum{stage=\"" << name << "\"} "
        << stage.total_ns << '\n';
    out << "rmts_stage_latency_ns_count{stage=\"" << name << "\"} "
        << stage.count << '\n';
  }
}

/// The stats reply the old router built for `{"op":"stats"}`.
inline std::string stats_reply(const Metrics& metrics_,
                               const std::function<RuntimeStats()>& runtime_,
                               const online::SessionRegistry& sessions_) {
  JsonWriter w;
  w.begin_object();
  w.key("ok");
  w.value(true);
  w.key("op");
  w.value("stats");
  {
        if (runtime_) {
          const RuntimeStats runtime = runtime_();
          w.key("uptime_seconds");
          w.value(runtime.uptime_seconds);
          w.key("workers");
          w.value(runtime.workers);
          w.key("connections_accepted");
          w.value(runtime.connections_accepted);
          w.key("connections_active");
          w.value(runtime.connections_active);
          w.key("requests_shed");
          w.value(runtime.requests_shed);
          w.key("batches_dispatched");
          w.value(runtime.batches_dispatched);
          w.key("in_flight");
          w.value(runtime.in_flight);
          write_overload_stats(w, runtime);
        }
        // Online sessions: one aggregate block (lifetime counters fold
        // in closed sessions; resident_tasks is a live gauge) plus a
        // per-session table of each live session's full stats.
        {
          const auto rows = sessions_.all_stats();
          const online::RegistryTotals totals = sessions_.totals();
          w.key("sessions");
          w.begin_object();
          w.key("open");
          w.value(rows.size());
          w.key("resident_tasks");
          w.value(totals.resident_tasks);
          w.key("admits");
          w.value(totals.admits_total);
          w.key("rejects");
          w.value(totals.rejects_total);
          w.key("departs");
          w.value(totals.departs_total);
          w.key("migrations");
          w.value(totals.migrations_total);
          w.key("per_session");
          w.begin_array();
          for (const auto& [sid, stats] : rows) {
            w.begin_object();
            w.key("session");
            w.value(sid);
            stats_render::write_session_stats(w, stats);
            w.end_object();
          }
          w.end_array();
          w.end_object();
        }
        w.key("requests_total");
        w.value(metrics_.total_requests());
        w.key("endpoints");
        w.begin_object();
        for (std::size_t e = 0; e < kEndpointCount; ++e) {
          write_endpoint_stats(w, metrics_, static_cast<Endpoint>(e));
        }
        w.end_object();
        write_trace_stats(w);
  }
  w.end_object();
  return w.str();
}

/// The old Router::metrics_exposition().
inline std::string exposition(const Metrics& metrics_,
                              const std::function<RuntimeStats()>& runtime_,
                              const online::SessionRegistry& sessions_) {
  std::ostringstream out;
  expose_endpoints(out, metrics_);
  if (runtime_) expose_runtime(out, runtime_());
  expose_sessions(out, sessions_.all_stats(), sessions_.totals());
  expose_trace(out);
  return out.str();
}

}  // namespace rmts::oracle::stats_render
