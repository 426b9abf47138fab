// Request router: one decoded protocol line in, one JSON reply out.
//
// The router is the pure, transport-free core of the service -- the epoll
// loop (server/server.hpp), the in-process protocol fuzzer and the unit
// tests all drive the same handle() entry point.  It owns no sockets and
// no mutable state: algorithm objects are cheap const instances, repeated
// simulation reuses a thread_local SimWorkspace, so handle() is safe to
// call concurrently from any number of pool workers.
//
// Request semantics follow the repo's error philosophy: "not schedulable"
// is a normal ok:true reply with accepted:false; ok:false is reserved for
// requests the service could not interpret or that violate the documented
// limits (malformed JSON, unknown op, oversized task set, invalid fault
// model).
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "common/time.hpp"
#include "online/registry.hpp"
#include "server/metrics.hpp"

namespace rmts::server {

/// Hard per-request limits; requests beyond them get ok:false instead of
/// unbounded service time.
struct RouterConfig {
  std::size_t max_tasks{512};
  std::size_t max_processors{256};
  /// Cap fed to recommended_horizon() for simulate/robustness probes.
  Time sim_horizon_cap{2'000'000};
  /// Upper limit a robustness request may set as its bisection range.
  double max_overrun_factor{8.0};
  /// Most task sets one admit_batch request may carry; each item still
  /// honors max_tasks/max_processors on its own.
  std::size_t max_batch_items{64};
  /// Online sessions (the session_* ops): concurrently open sessions and
  /// per-session caps.  A session_open may ask for fewer residents but
  /// never more.
  std::size_t max_sessions{64};
  std::size_t max_session_processors{256};
  std::size_t max_session_residents{4096};
};

/// Outcome of one handled line: the reply document (no trailing newline)
/// plus what to record in Metrics.
struct HandleOutcome {
  std::string reply;
  Endpoint endpoint{Endpoint::kMalformed};
  bool error{false};
};

class Router {
 public:
  /// `metrics` is the read side for the stats endpoint (recording is the
  /// transport's job, which also sees queue wait); `runtime`, when set,
  /// supplies the event-loop counters for stats.
  Router(RouterConfig config, const Metrics& metrics,
         std::function<RuntimeStats()> runtime = {});

  /// Handles one complete request line.  Never throws; every failure is a
  /// well-formed ok:false reply.  Thread-safe.
  [[nodiscard]] HandleOutcome handle(std::string_view line) const;

  /// One read of the whole observability surface (metrics.hpp): what the
  /// `stats` op and the exposition render.  Thread-safe.
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// exposition(snapshot()): served by the `metrics` op (JSON-wrapped)
  /// and by the server's `GET /metrics` scrape path (raw).  Thread-safe.
  [[nodiscard]] std::string metrics_exposition() const;

  /// Canonical outcome for a line the decoder refused (over the length
  /// cap) -- the request text itself is gone, so this cannot echo an id.
  [[nodiscard]] HandleOutcome oversized_line() const;

  [[nodiscard]] const RouterConfig& config() const noexcept { return config_; }

  /// The online-session store: the session ops mutate it, tests and the
  /// fuzzer inspect it.  Internally synchronized, hence mutable here.
  [[nodiscard]] online::SessionRegistry& sessions() const noexcept {
    return sessions_;
  }

 private:
  RouterConfig config_;
  const Metrics& metrics_;
  std::function<RuntimeStats()> runtime_;
  /// The one piece of mutable state the router owns: long-lived online
  /// sessions (the session_* ops are stateful by nature).  The registry
  /// is internally synchronized -- per-session mutexes plus a map lock --
  /// so handle() stays const and callable from any worker.
  mutable online::SessionRegistry sessions_;
};

}  // namespace rmts::server
