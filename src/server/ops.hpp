// The op table: one row per wire op, and the only place the server names
// one (the request builders in client.hpp aside).
//
// A row holds everything the service knows about an op -- its name on the
// wire, the Endpoint its requests are counted under, the overload budget
// class it draws from (none for the control plane), the trace stage that
// times its compute and the handler that renders its reply.  The router
// dispatches through the table, the event loop's peek classifies through
// it, and the overload controller samples each class over every endpoint
// the table puts in it, so adding an op is adding one row.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/trace.hpp"

namespace rmts::server {

/// The service's endpoints plus a bucket for lines that never parsed far
/// enough to name one.
enum class Endpoint : std::uint8_t {
  kAdmit,
  kAdmitBatch,
  kAnalyze,
  kRobustness,
  kSimulate,
  kSession,  ///< all session_* ops (open/admit/depart/rebalance/stats/close)
  kStats,
  kMetrics,
  kMalformed,
};
inline constexpr std::size_t kEndpointCount = 9;

/// Op classes that consume worker budget.  stats/metrics/malformed stay
/// un-budgeted: they are control-plane traffic an operator needs MOST
/// while the server is overloaded, and they cost microseconds.
enum class BudgetClass : std::uint8_t {
  kAdmit,
  kAnalyze,
  kRobustness,
  kSimulate,
  kSession,  ///< online-session mutations (admit/depart/rebalance/open)
};
inline constexpr std::size_t kBudgetClassCount = 5;

inline constexpr std::array<std::string_view, kEndpointCount> kEndpointNames{
    "admit",   "admit_batch", "analyze", "robustness", "simulate",
    "session", "stats",       "metrics", "malformed"};
inline constexpr std::array<std::string_view, kBudgetClassCount>
    kBudgetClassNames{"admit", "analyze", "robustness", "simulate", "session"};

[[nodiscard]] constexpr std::string_view endpoint_name(
    Endpoint endpoint) noexcept {
  return kEndpointNames[static_cast<std::size_t>(endpoint)];
}
[[nodiscard]] constexpr std::string_view budget_class_name(
    BudgetClass cls) noexcept {
  return kBudgetClassNames[static_cast<std::size_t>(cls)];
}

class JsonValue;
class JsonWriter;
class Router;

/// Renders an op's fields into the open reply object; throws the router's
/// protocol error (or rmts::Error) for a request it cannot serve.  The
/// handlers are defined in router.cpp.
using OpHandler = void (*)(JsonWriter& w, const JsonValue& request,
                           const Router& router);
namespace handlers {
void admit(JsonWriter&, const JsonValue&, const Router&);
void admit_batch(JsonWriter&, const JsonValue&, const Router&);
void analyze(JsonWriter&, const JsonValue&, const Router&);
void robustness(JsonWriter&, const JsonValue&, const Router&);
void simulate(JsonWriter&, const JsonValue&, const Router&);
void session_open(JsonWriter&, const JsonValue&, const Router&);
void session_admit(JsonWriter&, const JsonValue&, const Router&);
void session_depart(JsonWriter&, const JsonValue&, const Router&);
void session_rebalance(JsonWriter&, const JsonValue&, const Router&);
void session_stats(JsonWriter&, const JsonValue&, const Router&);
void session_close(JsonWriter&, const JsonValue&, const Router&);
void stats(JsonWriter&, const JsonValue&, const Router&);
void metrics(JsonWriter&, const JsonValue&, const Router&);
}  // namespace handlers

struct Op {
  std::string_view name;  ///< the request's "op" value
  Endpoint endpoint;
  std::optional<BudgetClass> budget;  ///< none: un-budgeted control plane
  trace::Stage stage;
  OpHandler handler;
};

inline constexpr std::array<Op, 13> kOps{{
    {"admit", Endpoint::kAdmit, BudgetClass::kAdmit,
     trace::Stage::kRouterAdmit, &handlers::admit},
    // A batch is admission work: it shares the admit budget so a flood of
    // batches cannot starve single-probe clients of their own class.
    {"admit_batch", Endpoint::kAdmitBatch, BudgetClass::kAdmit,
     trace::Stage::kRouterAdmit, &handlers::admit_batch},
    {"analyze", Endpoint::kAnalyze, BudgetClass::kAnalyze,
     trace::Stage::kRouterAnalyze, &handlers::analyze},
    {"robustness", Endpoint::kRobustness, BudgetClass::kRobustness,
     trace::Stage::kRouterRobustness, &handlers::robustness},
    {"simulate", Endpoint::kSimulate, BudgetClass::kSimulate,
     trace::Stage::kRouterSimulate, &handlers::simulate},
    // All session ops share one budget; even session_stats takes the
    // per-session mutex, so it queues behind mutations anyway.
    {"session_open", Endpoint::kSession, BudgetClass::kSession,
     trace::Stage::kRouterSession, &handlers::session_open},
    {"session_admit", Endpoint::kSession, BudgetClass::kSession,
     trace::Stage::kRouterSession, &handlers::session_admit},
    {"session_depart", Endpoint::kSession, BudgetClass::kSession,
     trace::Stage::kRouterSession, &handlers::session_depart},
    {"session_rebalance", Endpoint::kSession, BudgetClass::kSession,
     trace::Stage::kRouterSession, &handlers::session_rebalance},
    {"session_stats", Endpoint::kSession, BudgetClass::kSession,
     trace::Stage::kRouterSession, &handlers::session_stats},
    {"session_close", Endpoint::kSession, BudgetClass::kSession,
     trace::Stage::kRouterSession, &handlers::session_close},
    {"stats", Endpoint::kStats, std::nullopt, trace::Stage::kRouterStats,
     &handlers::stats},
    {"metrics", Endpoint::kMetrics, std::nullopt, trace::Stage::kRouterMetrics,
     &handlers::metrics},
}};

/// The row named `name`, or nullptr for an unknown op.
[[nodiscard]] constexpr const Op* find_op(std::string_view name) noexcept {
  for (const Op& op : kOps) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

/// The budget class an endpoint's requests draw from; none for the
/// control plane and malformed lines.
[[nodiscard]] constexpr std::optional<BudgetClass> budget_of(
    Endpoint endpoint) noexcept {
  for (const Op& op : kOps) {
    if (op.endpoint == endpoint) return op.budget;
  }
  return std::nullopt;
}

// budget_of() reads one row per endpoint: every row of an endpoint must
// name the same class.
static_assert([] {
  for (const Op& op : kOps) {
    if (budget_of(op.endpoint) != op.budget) return false;
  }
  return true;
}());

}  // namespace rmts::server
