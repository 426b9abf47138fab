#include "server/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "server/json.hpp"

namespace rmts::server {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

}  // namespace

Client::Client(const std::string& host, std::uint16_t port, int timeout_ms,
               std::uint64_t seed)
    : retry_rng_(seed) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw TransportError("not a numeric IPv4 address: " + host);
  }

  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd_ < 0) fail("socket");

  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  // Bounded connect: start it non-blocking, wait for writability with
  // poll(), then read back SO_ERROR.  A blocking connect() ignores the
  // socket send timeout on Linux, so a black-holed address would stall
  // callers for the kernel's minutes-long SYN retry schedule.
  int rc =
      ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINTR) rc = -1, errno = EINPROGRESS;
  if (rc != 0) {
    if (errno != EINPROGRESS) {
      ::close(fd_);
      fd_ = -1;
      fail("connect");
    }
    pollfd pfd{fd_, POLLOUT, 0};
    int waited;
    do {
      waited = ::poll(&pfd, 1, timeout_ms > 0 ? timeout_ms : -1);
    } while (waited < 0 && errno == EINTR);
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (waited > 0) ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (waited <= 0 || soerr != 0) {
      ::close(fd_);
      fd_ = -1;
      if (waited == 0) {
        throw TransportError("connect timed out after " +
                             std::to_string(timeout_ms) + " ms");
      }
      if (waited < 0) fail("poll (connect)");
      errno = soerr;
      fail("connect");
    }
  }

  // Back to blocking; request()/read_reply() rely on the socket timeouts.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd_, F_SETFL, flags & ~O_NONBLOCK);

  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buffer_(std::move(other.buffer_)),
      retry_rng_(other.retry_rng_) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
    retry_rng_ = other.retry_rng_;
  }
  return *this;
}

std::string Client::request(std::string_view line) {
  send_line(line);
  return read_reply();
}

std::int64_t retry_backoff_ms(const RetryPolicy& policy, int attempt,
                              int hint_ms, Rng& rng) {
  // Exponential backoff from the policy, capped at max_backoff_ms and
  // jittered so a fleet of clients decorrelates instead of re-bursting in
  // lockstep.  The server's hint is applied LAST, as a floor the cap never
  // truncates: max_backoff_ms bounds the client's own impatience, not how
  // long the server asked it to stay away.
  std::int64_t backoff_ms = policy.base_backoff_ms;
  for (int k = 1; k < attempt && backoff_ms < policy.max_backoff_ms; ++k) {
    backoff_ms *= 2;
  }
  backoff_ms =
      std::min<std::int64_t>(backoff_ms, std::max(policy.max_backoff_ms, 1));
  const double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  const double factor = 1.0 + jitter * (2.0 * rng.uniform() - 1.0);
  backoff_ms = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(static_cast<double>(backoff_ms) * factor));
  return std::max<std::int64_t>(backoff_ms, hint_ms);
}

RetryResult Client::request_with_retry(std::string_view line,
                                       const RetryPolicy& policy) {
  const int max_attempts = std::max(policy.max_attempts, 1);
  RetryResult result;
  for (int attempt = 1;; ++attempt) {
    result.reply = request(line);
    result.attempts = attempt;
    const int hint_ms = parse_retry_after_ms(result.reply);
    if (hint_ms == 0) return result;  // not an overload shed
    if (attempt >= max_attempts) {
      result.attempts_exhausted = true;
      return result;
    }
    const std::int64_t backoff_ms =
        retry_backoff_ms(policy, attempt, hint_ms, retry_rng_);
    std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    result.backoff_total_ms += backoff_ms;
  }
}

int Client::parse_retry_after_ms(std::string_view reply) noexcept {
  if (reply.find("\"error\":\"overloaded\"") == std::string_view::npos) {
    return 0;
  }
  static constexpr std::string_view kKey = "\"retry_after_ms\":";
  const std::size_t at = reply.find(kKey);
  if (at == std::string_view::npos) return 1;  // shed without a hint
  std::size_t i = at + kKey.size();
  long long value = 0;
  bool any = false;
  while (i < reply.size() && reply[i] >= '0' && reply[i] <= '9') {
    value = value * 10 + (reply[i] - '0');
    if (value > 1'000'000) value = 1'000'000;
    ++i;
    any = true;
  }
  if (!any || value <= 0) return 1;
  return static_cast<int>(value);
}

void Client::send_line(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');

  std::size_t sent = 0;
  while (sent < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + sent, framed.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string Client::read_reply() {
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }

    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) throw TransportError("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw TransportError("timed out waiting for reply");
    }
    fail("recv");
  }
}

namespace {

/// Every request's prologue: op, then the optional id and deadline.  The
/// object is left open for the op's fields.
void begin_request(JsonWriter& w, std::string_view op, std::int64_t id,
                   std::int64_t deadline_ms) {
  w.begin_object();
  w.member("op", op);
  if (id >= 0) w.member("id", id);
  if (deadline_ms > 0) w.member("deadline_ms", deadline_ms);
}

void write_tasks(JsonWriter& w, const TaskSet& tasks) {
  w.begin_array("tasks");
  for (const Task& task : tasks) {
    w.begin_array();
    w.value(static_cast<std::int64_t>(task.wcet));
    w.value(static_cast<std::int64_t>(task.period));
    w.end_array();
  }
  w.end_array();
}

void write_alg_bound(JsonWriter& w, std::string_view alg,
                     std::string_view bound) {
  if (!alg.empty()) w.member("alg", alg);
  if (!bound.empty()) w.member("bound", bound);
}

/// admit/analyze/robustness/simulate: prologue, m, tasks, alg, bound.
void begin_task_set_request(JsonWriter& w, std::string_view op,
                            std::size_t processors, const TaskSet& tasks,
                            std::string_view alg, std::string_view bound,
                            std::int64_t id, std::int64_t deadline_ms) {
  begin_request(w, op, id, deadline_ms);
  w.member("m", processors);
  write_tasks(w, tasks);
  write_alg_bound(w, alg, bound);
}

std::string task_set_request(std::string_view op, std::size_t processors,
                             const TaskSet& tasks, std::string_view alg,
                             std::string_view bound, std::int64_t id,
                             std::int64_t deadline_ms) {
  JsonWriter w;
  begin_task_set_request(w, op, processors, tasks, alg, bound, id,
                         deadline_ms);
  w.end_object();
  return w.str();
}

/// A session op's prologue plus its target session (0 = omit, for
/// session_open).
void begin_session_request(JsonWriter& w, std::string_view op,
                           std::uint64_t session, std::int64_t id,
                           std::int64_t deadline_ms) {
  begin_request(w, op, id, deadline_ms);
  if (session != 0) w.member("session", session);
}

std::string bare_request(std::string_view op, std::uint64_t session,
                         std::int64_t id, std::int64_t deadline_ms) {
  JsonWriter w;
  begin_session_request(w, op, session, id, deadline_ms);
  w.end_object();
  return w.str();
}

}  // namespace

std::string make_admit_request(std::size_t processors, const TaskSet& tasks,
                               std::string_view alg, std::string_view bound,
                               std::int64_t id, std::int64_t deadline_ms) {
  return task_set_request("admit", processors, tasks, alg, bound, id,
                          deadline_ms);
}

std::string make_admit_batch_request(std::size_t processors,
                                     std::span<const TaskSet> batch,
                                     std::string_view alg,
                                     std::string_view bound, std::int64_t id,
                                     std::int64_t deadline_ms) {
  JsonWriter w;
  begin_request(w, "admit_batch", id, deadline_ms);
  w.member("m", processors);
  write_alg_bound(w, alg, bound);
  w.begin_array("items");
  for (const TaskSet& tasks : batch) {
    w.begin_object();
    write_tasks(w, tasks);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string make_analyze_request(std::size_t processors, const TaskSet& tasks,
                                 std::string_view alg, std::string_view bound,
                                 std::int64_t id, std::int64_t deadline_ms) {
  return task_set_request("analyze", processors, tasks, alg, bound, id,
                          deadline_ms);
}

std::string make_robustness_request(std::size_t processors,
                                    const TaskSet& tasks, std::string_view alg,
                                    std::string_view bound, double max_factor,
                                    std::uint64_t fault_seed, std::int64_t id,
                                    std::int64_t deadline_ms) {
  JsonWriter w;
  begin_task_set_request(w, "robustness", processors, tasks, alg, bound, id,
                         deadline_ms);
  if (max_factor > 0.0) w.member("max_factor", max_factor);
  if (fault_seed != 0) w.member("fault_seed", fault_seed);
  w.end_object();
  return w.str();
}

std::string make_simulate_request(std::size_t processors, const TaskSet& tasks,
                                  std::string_view alg, std::string_view bound,
                                  std::int64_t id, std::int64_t deadline_ms) {
  return task_set_request("simulate", processors, tasks, alg, bound, id,
                          deadline_ms);
}

std::string make_stats_request(std::int64_t id) {
  return bare_request("stats", 0, id, 0);
}

std::string make_metrics_request(std::int64_t id) {
  return bare_request("metrics", 0, id, 0);
}

std::string make_session_open_request(std::size_t processors, bool split,
                                      std::int64_t id,
                                      std::int64_t deadline_ms) {
  JsonWriter w;
  begin_session_request(w, "session_open", 0, id, deadline_ms);
  w.member("m", processors);
  w.member("split", split);
  w.end_object();
  return w.str();
}

std::string make_session_admit_request(std::uint64_t session, Time wcet,
                                       Time period, std::int64_t id,
                                       std::int64_t deadline_ms) {
  JsonWriter w;
  begin_session_request(w, "session_admit", session, id, deadline_ms);
  w.member("wcet", static_cast<std::int64_t>(wcet));
  w.member("period", static_cast<std::int64_t>(period));
  w.end_object();
  return w.str();
}

std::string make_session_depart_request(std::uint64_t session,
                                        std::uint64_t ticket, std::int64_t id,
                                        std::int64_t deadline_ms) {
  JsonWriter w;
  begin_session_request(w, "session_depart", session, id, deadline_ms);
  w.member("ticket", ticket);
  w.end_object();
  return w.str();
}

std::string make_session_rebalance_request(std::uint64_t session,
                                           std::int64_t id,
                                           std::int64_t deadline_ms) {
  return bare_request("session_rebalance", session, id, deadline_ms);
}

std::string make_session_stats_request(std::uint64_t session,
                                       std::int64_t id) {
  return bare_request("session_stats", session, id, 0);
}

std::string make_session_close_request(std::uint64_t session,
                                       std::int64_t id) {
  return bare_request("session_close", session, id, 0);
}

}  // namespace rmts::server
