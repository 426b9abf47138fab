// Blocking TCP client for the admission-control protocol.
//
// One Client is one connection.  It is deliberately simple -- blocking
// socket with bounded connect/send/receive timeouts, one buffered reader
// -- because its users (rmts_loadgen, bench_e18/e20, the server smoke
// tests) each drive many independent connections from their own threads;
// the concurrency lives there, not here.  The request-builder helpers
// render the exact wire documents described in server/protocol.hpp so
// every caller speaks the same dialect.
//
// Overload cooperation: request_with_retry() resends a request the server
// shed ({"ok":false,"error":"overloaded"}), sleeping the larger of the
// server's retry_after_ms hint and a jittered exponential backoff between
// attempts.  The jitter is drawn from the client's own deterministic Rng
// (seeded at construction), so a fleet of retrying clients decorrelates
// instead of re-bursting in lockstep -- while every test run stays
// reproducible.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "tasks/task_set.hpp"

namespace rmts::server {

/// Socket-level failure talking to the service: connect refused, peer
/// closed mid-reply, receive timeout.  Protocol-level failures (ok:false
/// replies) are ordinary return values, matching the repo's error
/// philosophy.
class TransportError : public Error {
 public:
  using Error::Error;
};

/// How request_with_retry() behaves between attempts.
struct RetryPolicy {
  /// Total tries including the first; <= 1 disables retrying.
  int max_attempts{4};
  /// Backoff before retry k (1-based) is
  ///   max(server retry_after_ms hint,
  ///       jittered min(base_backoff_ms * 2^(k-1), max_backoff_ms)),
  /// where the jitter scales the client's own exponential term by a
  /// uniform factor in [1 - jitter, 1 + jitter].  max_backoff_ms caps
  /// only that term: the server's hint is always honored in full, so the
  /// client never retries sooner than the server asked.
  int base_backoff_ms{10};
  int max_backoff_ms{2000};
  double jitter{0.3};
};

/// The one backoff rule: how long to wait after `attempt` (1-based) tries
/// ended in sheds, the last carrying the server's `hint_ms`.  Draws one
/// jitter sample from `rng`; jitter is clamped to [0, 1].  Shared by
/// Client::request_with_retry and the load driver's open loop.
[[nodiscard]] std::int64_t retry_backoff_ms(const RetryPolicy& policy,
                                            int attempt, int hint_ms, Rng& rng);

/// Outcome of request_with_retry(): the final reply (possibly still an
/// `overloaded` error when attempts ran out) plus what it took.
struct RetryResult {
  std::string reply;
  int attempts{1};
  std::int64_t backoff_total_ms{0};
  [[nodiscard]] bool exhausted() const noexcept { return attempts_exhausted; }
  bool attempts_exhausted{false};
};

class Client {
 public:
  /// Connects to host:port (numeric IPv4 address) with a bound on how
  /// long the connect itself and any later request() may block (a
  /// non-blocking connect + poll, so a black-holed server fails in
  /// timeout_ms instead of the kernel's minutes-long default).  Throws
  /// TransportError.  `seed` feeds the retry jitter Rng.
  Client(const std::string& host, std::uint16_t port, int timeout_ms = 5000,
         std::uint64_t seed = 1);
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request line and blocks for its reply line (both without
  /// the trailing '\n').  The protocol answers in order, so pipelining
  /// callers may also interleave send_line()/read_reply() directly.
  std::string request(std::string_view line);

  /// request(), but when the server replies `overloaded`, sleeps (honoring
  /// the reply's retry_after_ms hint, with jittered exponential backoff)
  /// and resends, up to policy.max_attempts total tries.  Transport errors
  /// still throw; every protocol-level reply is returned.
  RetryResult request_with_retry(std::string_view line,
                                 const RetryPolicy& policy = {});

  /// Extracts the retry_after_ms hint from an `overloaded` reply line;
  /// 0 when the reply is not an overload shed (exposed for the load
  /// driver, which manages its own send/receive interleaving).
  [[nodiscard]] static int parse_retry_after_ms(std::string_view reply) noexcept;

  /// Writes `line` plus the terminating newline.
  void send_line(std::string_view line);

  /// Blocks for the next complete reply line.
  std::string read_reply();

 private:
  int fd_{-1};
  std::string buffer_;  ///< Bytes received beyond the last returned line.
  Rng retry_rng_{1};    ///< Deterministic jitter stream for retries.
};

/// Request builders (the "tasks" field is [[wcet, period], ...] in RM
/// order; the server re-validates and re-sorts anyway).  Empty alg/bound
/// omit the field, selecting the server defaults (rmts / hc).
/// `deadline_ms` > 0 adds the request's client deadline: the server drops
/// the request with `deadline_expired` if it is still queued that many
/// milliseconds after arrival.
[[nodiscard]] std::string make_admit_request(
    std::size_t processors, const TaskSet& tasks, std::string_view alg = {},
    std::string_view bound = {}, std::int64_t id = -1,
    std::int64_t deadline_ms = 0);
/// Batched admission: every task set in `batch` probed in one request
/// (op admit_batch), sharing the top-level m/alg/bound defaults.  The
/// reply carries one entry per item plus accepted_count.
[[nodiscard]] std::string make_admit_batch_request(
    std::size_t processors, std::span<const TaskSet> batch,
    std::string_view alg = {}, std::string_view bound = {},
    std::int64_t id = -1, std::int64_t deadline_ms = 0);
[[nodiscard]] std::string make_analyze_request(
    std::size_t processors, const TaskSet& tasks, std::string_view alg = {},
    std::string_view bound = {}, std::int64_t id = -1,
    std::int64_t deadline_ms = 0);
[[nodiscard]] std::string make_robustness_request(
    std::size_t processors, const TaskSet& tasks, std::string_view alg = {},
    std::string_view bound = {}, double max_factor = 0.0,
    std::uint64_t fault_seed = 0, std::int64_t id = -1,
    std::int64_t deadline_ms = 0);
[[nodiscard]] std::string make_simulate_request(
    std::size_t processors, const TaskSet& tasks, std::string_view alg = {},
    std::string_view bound = {}, std::int64_t id = -1,
    std::int64_t deadline_ms = 0);
[[nodiscard]] std::string make_stats_request(std::int64_t id = -1);
[[nodiscard]] std::string make_metrics_request(std::int64_t id = -1);

/// Online-session ops (op session_*): a session_open creates a long-lived
/// mutable partition on the server; admit/depart mutate it by ticket.
[[nodiscard]] std::string make_session_open_request(
    std::size_t processors, bool split = true, std::int64_t id = -1,
    std::int64_t deadline_ms = 0);
[[nodiscard]] std::string make_session_admit_request(
    std::uint64_t session, Time wcet, Time period, std::int64_t id = -1,
    std::int64_t deadline_ms = 0);
[[nodiscard]] std::string make_session_depart_request(
    std::uint64_t session, std::uint64_t ticket, std::int64_t id = -1,
    std::int64_t deadline_ms = 0);
[[nodiscard]] std::string make_session_rebalance_request(
    std::uint64_t session, std::int64_t id = -1, std::int64_t deadline_ms = 0);
[[nodiscard]] std::string make_session_stats_request(std::uint64_t session,
                                                     std::int64_t id = -1);
[[nodiscard]] std::string make_session_close_request(std::uint64_t session,
                                                     std::int64_t id = -1);

}  // namespace rmts::server
