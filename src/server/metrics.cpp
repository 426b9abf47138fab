#include "server/metrics.hpp"

#include <sstream>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>

#include "server/json.hpp"

namespace rmts::server {

void Metrics::record(Endpoint endpoint, bool error,
                     std::uint64_t micros) noexcept {
  PerEndpoint& e = endpoints_[static_cast<std::size_t>(endpoint)];
  if (error) e.errors.fetch_add(1, std::memory_order_relaxed);
  e.latency_us.record(micros);
}

Metrics::EndpointSnapshot Metrics::snapshot(Endpoint endpoint) const {
  const PerEndpoint& e = endpoints_[static_cast<std::size_t>(endpoint)];
  EndpointSnapshot out{.errors = e.errors.load(std::memory_order_relaxed),
                       .latency_us = e.latency_us.snapshot()};
  out.requests = out.latency_us.count();
  if (out.requests == 0) return out;
  out.max_micros = out.latency_us.max();
  out.p50_micros = out.latency_us.quantile(0.50);
  out.p90_micros = out.latency_us.quantile(0.90);
  out.p99_micros = out.latency_us.quantile(0.99);
  out.mean_micros = out.latency_us.mean();
  return out;
}

std::array<Metrics::EndpointSnapshot, kEndpointCount> Metrics::snapshot_all()
    const {
  return [this]<std::size_t... kE>(std::index_sequence<kE...>) {
    return std::array<EndpointSnapshot, kEndpointCount>{
        snapshot(static_cast<Endpoint>(kE))...};
  }(std::make_index_sequence<kEndpointCount>{});
}

std::uint64_t Metrics::total_requests() const {
  std::uint64_t total = 0;
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    total += snapshot(static_cast<Endpoint>(e)).requests;
  }
  return total;
}

namespace {

/// One rendered value: integers print exactly, reals through json_number
/// (stats) or prom_number (exposition).
using Num = std::variant<std::uint64_t, std::int64_t, double>;

template <auto kMember, class S>
Num get(const S& s) {
  using T = std::remove_cvref_t<decltype(s.*kMember)>;
  if constexpr (std::is_floating_point_v<T>) return double{s.*kMember};
  else if constexpr (std::is_signed_v<T>) return std::int64_t{s.*kMember};
  else return std::uint64_t{s.*kMember};
}

/// A field of S under its stats JSON key and its Prometheus family (a
/// `_total` family is a counter, any other a gauge); an empty name leaves
/// the field off that surface.
template <class S>
struct Field {
  std::string_view json;
  std::string_view prom;
  Num (*read)(const S&);
};

using EndpointSnapshot = Metrics::EndpointSnapshot;
using online::RegistryTotals;
using online::SessionStats;

constexpr Field<EndpointSnapshot> kEndpointFields[] = {
    {"requests", "rmts_requests_total", get<&EndpointSnapshot::requests>},
    {"errors", "rmts_request_errors_total", get<&EndpointSnapshot::errors>},
    {"p50_us", {}, get<&EndpointSnapshot::p50_micros>},
    {"p90_us", {}, get<&EndpointSnapshot::p90_micros>},
    {"p99_us", {}, get<&EndpointSnapshot::p99_micros>},
    {"mean_us", {}, get<&EndpointSnapshot::mean_micros>},
    {"max_us", {}, get<&EndpointSnapshot::max_micros>},
};

// requests_expired sits in the stats reply's overload block instead.
constexpr Field<RuntimeStats> kRuntimeFields[] = {
    {"uptime_seconds", "rmts_uptime_seconds",
     get<&RuntimeStats::uptime_seconds>},
    {"workers", "rmts_workers", get<&RuntimeStats::workers>},
    {"connections_accepted", "rmts_connections_accepted_total",
     get<&RuntimeStats::connections_accepted>},
    {"connections_active", "rmts_connections_active",
     get<&RuntimeStats::connections_active>},
    {"requests_shed", "rmts_requests_shed_total",
     get<&RuntimeStats::requests_shed>},
    {{}, "rmts_requests_expired_total", get<&RuntimeStats::requests_expired>},
    {"batches_dispatched", "rmts_batches_dispatched_total",
     get<&RuntimeStats::batches_dispatched>},
    {"in_flight", "rmts_requests_in_flight", get<&RuntimeStats::in_flight>},
};

constexpr Field<ClassRuntimeStats> kClassFields[] = {
    {"budget", "rmts_class_budget", get<&ClassRuntimeStats::budget>},
    {"in_flight", "rmts_class_in_flight", get<&ClassRuntimeStats::in_flight>},
    {"shed", "rmts_class_shed_total", get<&ClassRuntimeStats::shed>},
    {"expired", "rmts_class_expired_total", get<&ClassRuntimeStats::expired>},
    {"retry_after_ms", "rmts_class_retry_after_ms",
     get<&ClassRuntimeStats::retry_after_ms>},
};

constexpr Field<SessionStats> kSessionFields[] = {
    {"processors", {}, get<&SessionStats::processors>},
    {"resident_tasks", "rmts_session_resident_tasks",
     get<&SessionStats::resident_tasks>},
    {"resident_subtasks", {}, get<&SessionStats::resident_subtasks>},
    {"split_residents", {}, get<&SessionStats::split_residents>},
    {"admits", {}, get<&SessionStats::admits_total>},
    {"rejects", {}, get<&SessionStats::rejects_total>},
    {"departs", {}, get<&SessionStats::departs_total>},
    {"migrations", "rmts_session_migrations_total",
     get<&SessionStats::migrations_total>},
    {"rebalance_rounds", {}, get<&SessionStats::rebalance_rounds_total>},
    {"utilization", "rmts_session_utilization",
     get<&SessionStats::utilization>},
    {"normalized_utilization", {}, get<&SessionStats::normalized_utilization>},
    {"min_processor_utilization", {},
     get<&SessionStats::min_processor_utilization>},
    {"max_processor_utilization", {},
     get<&SessionStats::max_processor_utilization>},
};

// The registry's lifetime totals fold in closed sessions, so the `_total`
// series are monotone.
constexpr Field<RegistryTotals> kTotalsFields[] = {
    {"resident_tasks", {}, get<&RegistryTotals::resident_tasks>},
    {"admits", "rmts_session_admits_total", get<&RegistryTotals::admits_total>},
    {"rejects", "rmts_session_rejects_total",
     get<&RegistryTotals::rejects_total>},
    {"departs", "rmts_session_departs_total",
     get<&RegistryTotals::departs_total>},
    {"migrations", {}, get<&RegistryTotals::migrations_total>},
};

template <class S, std::size_t N>
void write_fields(JsonWriter& w, const Field<S> (&fields)[N], const S& s) {
  for (const Field<S>& field : fields) {
    if (field.json.empty()) continue;
    w.key(field.json);
    std::visit([&](auto value) { w.value(value); }, field.read(s));
  }
}

/// Prometheus floats: integral values print bare, others via json_number
/// (shortest round-trip decimal; never inf/nan here).
std::string prom_number(double value) {
  if (value == static_cast<double>(static_cast<std::int64_t>(value))) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  return json_number(value);
}

/// A family's samples: each row's label value (unused when the family is
/// unlabelled) and the struct its field is read from.
template <class S>
using Rows = std::vector<std::pair<std::string, const S*>>;

/// Each exposed field as one family: its TYPE line, then one sample per
/// row, labelled `label="<row label>"` unless label is empty.
template <class S, std::size_t N>
void expose(std::ostream& out, const Field<S> (&fields)[N],
            std::string_view label, const Rows<S>& rows) {
  for (const Field<S>& field : fields) {
    if (field.prom.empty()) continue;
    out << "# TYPE " << field.prom
        << (field.prom.ends_with("_total") ? " counter\n" : " gauge\n");
    for (const auto& [key, s] : rows) {
      out << field.prom;
      if (!label.empty()) out << '{' << label << "=\"" << key << "\"}";
      out << ' ';
      std::visit(
          [&](auto value) {
            if constexpr (std::is_same_v<decltype(value), double>) {
              out << prom_number(value);
            } else {
              out << value;
            }
          },
          field.read(*s));
      out << '\n';
    }
  }
}

}  // namespace

void write_session_stats(JsonWriter& w, const online::SessionStats& stats) {
  write_fields(w, kSessionFields, stats);
}

void write_stats(JsonWriter& w, const MetricsSnapshot& snapshot) {
  if (snapshot.runtime) {
    const RuntimeStats& runtime = *snapshot.runtime;
    write_fields(w, kRuntimeFields, runtime);
    // Live overload-control state: the adaptive flag, tick count and every
    // budgeted class's budget / in-flight / shed / expired / retry hint.
    w.begin_object("overload");
    w.member("adaptive", runtime.adaptive);
    w.member("controller_ticks", runtime.controller_ticks);
    w.member("requests_expired", runtime.requests_expired);
    w.begin_object("classes");
    for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
      w.begin_object(kBudgetClassNames[c]);
      write_fields(w, kClassFields, runtime.classes[c]);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  // Online sessions: one aggregate block (lifetime counters fold in closed
  // sessions; resident_tasks is a live gauge) plus a per-session table of
  // each live session's full stats.
  w.begin_object("sessions");
  w.member("open", snapshot.sessions.size());
  write_fields(w, kTotalsFields, snapshot.session_totals);
  w.begin_array("per_session");
  for (const auto& [sid, stats] : snapshot.sessions) {
    w.begin_object();
    w.member("session", sid);
    write_session_stats(w, stats);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::uint64_t requests_total = 0;
  for (const EndpointSnapshot& e : snapshot.endpoints) {
    requests_total += e.requests;
  }
  w.member("requests_total", requests_total);
  w.begin_object("endpoints");
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    w.begin_object(kEndpointNames[e]);
    write_fields(w, kEndpointFields, snapshot.endpoints[e]);
    w.end_object();
  }
  w.end_object();

  // Cross-layer stage timers and counters, when the tracing layer is
  // compiled in (common/trace.hpp).
  w.member("tracing", snapshot.tracing);
  if (!trace::compiled_in()) return;
  w.begin_object("stages");
  for (std::size_t s = 0; s < trace::kStageCount; ++s) {
    const trace::StageSnapshot& stage = snapshot.trace.stages[s];
    if (stage.count == 0) continue;
    w.begin_object(trace::stage_name(static_cast<trace::Stage>(s)));
    w.member("count", stage.count);
    w.member("total_us", static_cast<double>(stage.total_ns) / 1000.0);
    w.member("mean_us", stage.mean_ns() / 1000.0);
    w.member("p50_us", stage.latency_ns.quantile(0.50) / 1000.0);
    w.member("p99_us", stage.latency_ns.quantile(0.99) / 1000.0);
    w.member("max_us", static_cast<double>(stage.max_ns) / 1000.0);
    w.end_object();
  }
  w.end_object();
  w.begin_object("counters");
  for (std::size_t c = 0; c < trace::kCounterCount; ++c) {
    w.member(trace::counter_name(static_cast<trace::Counter>(c)),
             snapshot.trace.counters[c]);
  }
  w.end_object();
}

std::string exposition(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  Rows<EndpointSnapshot> endpoints;
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    endpoints.emplace_back(kEndpointNames[e], &snapshot.endpoints[e]);
  }
  expose(out, kEndpointFields, "endpoint", endpoints);
  // Sparse HDR histogram: only non-empty buckets are emitted (cumulative,
  // as Prometheus `le` semantics require), plus the mandatory +Inf.
  out << "# TYPE rmts_request_latency_us histogram\n";
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    const EndpointSnapshot& snap = snapshot.endpoints[e];
    if (snap.requests == 0) continue;
    const std::string_view label = kEndpointNames[e];
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

  if (snapshot.runtime) {
    const RuntimeStats& runtime = *snapshot.runtime;
    expose(out, kRuntimeFields, {}, {{{}, &runtime}});
    // Overload-control surface: live budgets and per-class counters, so a
    // dashboard can watch the controller breathe in production.
    out << "# TYPE rmts_overload_adaptive gauge\n"
        << "rmts_overload_adaptive " << (runtime.adaptive ? 1 : 0) << '\n'
        << "# TYPE rmts_overload_controller_ticks_total counter\n"
        << "rmts_overload_controller_ticks_total " << runtime.controller_ticks
        << '\n';
    Rows<ClassRuntimeStats> classes;
    for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
      classes.emplace_back(kBudgetClassNames[c], &runtime.classes[c]);
    }
    expose(out, kClassFields, "class", classes);
  }

  // Online-session gauges: per-session series labelled by session id
  // (they disappear when their session closes) plus aggregate op totals.
  out << "# TYPE rmts_sessions_open gauge\n"
      << "rmts_sessions_open " << snapshot.sessions.size() << '\n';
  Rows<SessionStats> sessions;
  for (const auto& [sid, stats] : snapshot.sessions) {
    sessions.emplace_back(std::to_string(sid), &stats);
  }
  expose(out, kSessionFields, "session", sessions);
  expose(out, kTotalsFields, {}, {{{}, &snapshot.session_totals}});

  if (!trace::compiled_in()) return out.str();
  const trace::Snapshot& trace = snapshot.trace;
  out << "# TYPE rmts_trace_events_total counter\n";
  for (std::size_t c = 0; c < trace::kCounterCount; ++c) {
    out << "rmts_trace_events_total{counter=\""
        << trace::counter_name(static_cast<trace::Counter>(c)) << "\"} "
        << trace.counters[c] << '\n';
  }
  const std::uint64_t posted = trace.counter(trace::Counter::kPoolTasksPosted);
  const std::uint64_t started = trace.counter(trace::Counter::kPoolTasksStarted);
  out << "# TYPE rmts_pool_queue_depth gauge\n"
      << "rmts_pool_queue_depth " << (posted > started ? posted - started : 0)
      << '\n';
  // Per-stage latency as a summary (count/sum plus key quantiles); the
  // full per-stage HDR buckets would multiply the payload ~16x for little
  // scrape value.
  out << "# TYPE rmts_stage_latency_ns summary\n";
  for (std::size_t s = 0; s < trace::kStageCount; ++s) {
    const trace::StageSnapshot& stage = trace.stages[s];
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
  return out.str();
}

}  // namespace rmts::server
