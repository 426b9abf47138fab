#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "server/overload.hpp"
#include "server/protocol.hpp"

namespace rmts::server {

namespace {

using Clock = std::chrono::steady_clock;

/// epoll user-data tokens for the four non-connection fds; connection
/// tokens start above so they can never collide.
constexpr std::uint64_t kListenToken = 1;
constexpr std::uint64_t kStopToken = 2;
constexpr std::uint64_t kCompletionToken = 3;
constexpr std::uint64_t kTimerToken = 4;
constexpr std::uint64_t kFirstConnectionToken = 16;

[[noreturn]] void throw_errno(const std::string& what) {
  throw InvalidConfigError(what + ": " + std::strerror(errno));
}

/// `elapsed` in whole `Unit`s.
template <class Unit>
std::uint64_t count_in(Clock::duration elapsed) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<Unit>(elapsed).count());
}

/// One request handed to the worker pool.
struct PendingRequest {
  std::uint64_t token{0};
  std::uint64_t seq{0};  ///< per-connection dispatch order
  std::string line;
  Clock::time_point enqueued;
  /// Event-loop peek: the op's endpoint, the class budget this request
  /// holds (if any) and the client deadline in ms from arrival (0 = none).
  RequestPeek peek;
};

/// One computed reply travelling back to the loop.
struct Completion {
  std::uint64_t token{0};
  std::uint64_t seq{0};
  std::string reply;
};

struct Connection {
  int fd{-1};
  std::uint64_t token{0};
  LineDecoder decoder;
  /// Unsent reply bytes; write_offset avoids O(n) front erases.
  std::string write_buffer;
  std::size_t write_offset{0};
  /// Requests of this connection currently dispatched or queued.
  std::size_t pending{0};
  /// Pipelined replies must leave in request order, but one connection's
  /// wave can span several pool batches that complete on different
  /// workers in either order -- and decode-time replies (sheds, oversized
  /// lines) are produced before earlier pooled requests finish.  Every
  /// reply therefore claims the next seq at decode time; completions
  /// ahead of deliver_next wait in held until the gap fills (empty
  /// whenever pending == 0).  held is NOT bounded by max_in_flight: a
  /// client pinning one slow admitted request while streaming sheddable
  /// lines grows it at network ingest rate, so held_bytes counts into the
  /// write-backpressure gate (update_interest) exactly like unsent().
  std::uint64_t seq_next{0};
  std::uint64_t deliver_next{0};
  std::map<std::uint64_t, std::string> held;
  std::size_t held_bytes{0};
  bool read_closed{false};
  /// Interest currently registered with epoll.
  bool want_read{true};
  bool want_write{false};

  explicit Connection(int fd_in, std::uint64_t token_in, std::size_t max_line)
      : fd(fd_in), token(token_in), decoder(max_line) {}

  [[nodiscard]] std::size_t unsent() const noexcept {
    return write_buffer.size() - write_offset;
  }
};

}  // namespace

struct Server::Impl {
  explicit Impl(ServerConfig config_in)
      : config(normalize(std::move(config_in))),
        controller(config.overload),
        router(config.router, metrics, [this] { return runtime_snapshot(); }),
        pool(std::make_unique<ThreadPool>(config.workers)) {
    start_time = Clock::now();
    listen_fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config.port);
    if (::inet_pton(AF_INET, config.host.c_str(), &addr.sin_addr) != 1) {
      close_all();
      throw InvalidConfigError("invalid listen address: " + config.host);
    }
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
      close_all();
      throw_errno("bind " + config.host + ":" + std::to_string(config.port));
    }
    if (::listen(listen_fd, 512) != 0) {
      close_all();
      throw_errno("listen");
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
    bound_port = ntohs(bound.sin_port);

    stop_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    completion_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    timer_fd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (stop_fd < 0 || completion_fd < 0 || timer_fd < 0 || epoll_fd < 0) {
      close_all();
      throw_errno("eventfd/timerfd/epoll_create1");
    }
    // Arm the monitoring tick (the controller clamped interval_ms >= 1).
    const int interval_ms = controller.config().interval_ms;
    itimerspec tick{};
    tick.it_interval.tv_sec = interval_ms / 1000;
    tick.it_interval.tv_nsec = (interval_ms % 1000) * 1'000'000L;
    tick.it_value = tick.it_interval;
    ::timerfd_settime(timer_fd, 0, &tick, nullptr);
    publish_budgets();  // before any request arrives
    try {
      add_fd(listen_fd, kListenToken, EPOLLIN);
      add_fd(stop_fd, kStopToken, EPOLLIN);
      add_fd(completion_fd, kCompletionToken, EPOLLIN);
      add_fd(timer_fd, kTimerToken, EPOLLIN);
    } catch (...) {
      close_all();  // ~Impl will not run if the constructor throws
      throw;
    }
  }

  ~Impl() {
    // Join the workers FIRST: a batch abandoned at the drain deadline may
    // still be touching the completion queue and eventfd.  Only then is it
    // safe to close the remaining fds.
    pool.reset();
    close_all();
  }

  static ServerConfig normalize(ServerConfig config) {
    if (config.workers == 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      config.workers = hw > 1 ? hw - 1 : 1;
    }
    if (config.batch_size == 0) config.batch_size = 1;
    if (config.max_in_flight == 0) config.max_in_flight = 1;
    return config;
  }

  void add_fd(int fd, std::uint64_t token, std::uint32_t events) const {
    epoll_event event{};
    event.events = events;
    event.data.u64 = token;
    if (::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) != 0) {
      throw_errno("epoll_ctl(ADD)");
    }
  }

  /// Closes the client-visible sockets (run()'s teardown).  The eventfds
  /// and the epoll fd stay open until ~Impl so a straggling worker can
  /// still signal a dead-but-valid fd rather than a recycled number.
  void close_sockets() noexcept {
    for (auto& [token, conn] : connections) {
      if (conn->fd >= 0) ::close(conn->fd);
    }
    connections.clear();
    connections_active.store(0, std::memory_order_relaxed);
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
    }
  }

  void close_all() noexcept {
    close_sockets();
    for (int* fd : {&stop_fd, &completion_fd, &timer_fd, &epoll_fd}) {
      if (*fd >= 0) {
        ::close(*fd);
        *fd = -1;
      }
    }
  }

  RuntimeStats runtime_snapshot() const noexcept {
    RuntimeStats out;
    out.connections_accepted =
        connections_accepted.load(std::memory_order_relaxed);
    out.connections_active = connections_active.load(std::memory_order_relaxed);
    out.requests_shed = requests_shed.load(std::memory_order_relaxed);
    out.requests_expired = requests_expired.load(std::memory_order_relaxed);
    out.batches_dispatched =
        batches_dispatched.load(std::memory_order_relaxed);
    out.in_flight = in_flight.load(std::memory_order_relaxed);
    out.uptime_seconds =
        std::chrono::duration<double>(Clock::now() - start_time).count();
    out.workers = config.workers;
    out.adaptive = controller.config().adaptive;
    out.controller_ticks = controller_ticks.load(std::memory_order_relaxed);
    for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
      ClassRuntimeStats& cls = out.classes[c];
      cls.budget = class_budget[c].load(std::memory_order_relaxed);
      cls.in_flight = class_in_flight[c].load(std::memory_order_relaxed);
      cls.shed = class_shed[c].load(std::memory_order_relaxed);
      cls.expired = class_expired[c].load(std::memory_order_relaxed);
      cls.retry_after_ms = class_retry_ms[c].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// One monitoring tick (timerfd): read each class's interval metrics
  /// from the cumulative HDR histograms, step the controller, publish the
  /// new budgets and retry hints.  Runs on the event-loop thread only.
  void controller_tick() {
    std::uint64_t expirations = 0;
    (void)::read(timer_fd, &expirations, sizeof expirations);
    if (!accepting) set_listen_interest(EPOLLIN);  // retry after EMFILE

    // A class's sample covers every endpoint the op table puts in it
    // (admit and admit_batch share the admit budget).
    std::array<std::uint64_t, kBudgetClassCount> requests{};
    std::array<Histogram, kBudgetClassCount> latency{};
    for (std::size_t e = 0; e < kEndpointCount; ++e) {
      const std::optional<BudgetClass> cls = budget_of(static_cast<Endpoint>(e));
      if (!cls) continue;
      const auto c = static_cast<std::size_t>(*cls);
      const Metrics::EndpointSnapshot snap =
          metrics.snapshot(static_cast<Endpoint>(e));
      requests[c] += snap.requests;
      latency[c].merge(snap.latency_us);
    }
    std::array<ClassSample, kBudgetClassCount> samples{};
    for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
      ClassSample& sample = samples[c];
      sample.completed = requests[c] - tick_prev_requests[c];
      const std::uint64_t shed_now =
          class_shed[c].load(std::memory_order_relaxed);
      sample.shed = shed_now - tick_prev_shed[c];
      sample.in_flight = class_in_flight[c].load(std::memory_order_relaxed);
      if (sample.completed > 0) {
        sample.p99_us =
            latency[c].delta_since(tick_prev_latency[c]).quantile(0.99);
      }
      tick_prev_requests[c] = requests[c];
      tick_prev_shed[c] = shed_now;
      tick_prev_latency[c] = std::move(latency[c]);
    }

    controller.tick(samples);
    publish_budgets();
  }

  /// Mirrors the controller's budgets, hints and tick count into the
  /// atomics the loop, the workers and the stats surface read.
  void publish_budgets() {
    controller_ticks.store(controller.ticks(), std::memory_order_relaxed);
    for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
      const auto cls = static_cast<BudgetClass>(c);
      class_budget[c].store(controller.budget(cls), std::memory_order_relaxed);
      class_retry_ms[c].store(controller.retry_after_ms(cls),
                              std::memory_order_relaxed);
    }
  }

  // ---- event loop -------------------------------------------------------

  void run() {
    std::vector<epoll_event> events(128);
    while (true) {
      int timeout_ms = -1;
      if (draining) {
        if (drain_complete()) break;
        const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
            drain_deadline - Clock::now());
        if (remaining.count() <= 0) break;  // deadline: abandon stragglers
        timeout_ms = static_cast<int>(remaining.count()) + 1;
      }
      const int ready =
          ::epoll_wait(epoll_fd, events.data(),
                       static_cast<int>(events.size()), timeout_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw_errno("epoll_wait");
      }
      for (int i = 0; i < ready; ++i) {
        const std::uint64_t token = events[static_cast<std::size_t>(i)].data.u64;
        const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
        if (token == kListenToken) {
          accept_ready();
        } else if (token == kStopToken) {
          begin_drain();
        } else if (token == kCompletionToken) {
          deliver_completions();
        } else if (token == kTimerToken) {
          controller_tick();
        } else {
          connection_ready(token, mask);
        }
      }
      dispatch_batches();
    }
    close_sockets();
  }

  void begin_drain() {
    // Clear the eventfd either way so a level-triggered epoll does not
    // keep reporting the stop token while the drain runs.
    std::uint64_t counter = 0;
    (void)::read(stop_fd, &counter, sizeof counter);
    if (draining) return;
    draining = true;
    drain_deadline = Clock::now() + std::chrono::milliseconds(
                                        config.drain_timeout_ms > 0
                                            ? config.drain_timeout_ms
                                            : 0);
    if (listen_fd >= 0) {
      ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, listen_fd, nullptr);
      ::close(listen_fd);
      listen_fd = -1;
    }
    // Stop reading everywhere: no new requests, existing ones drain.
    for (auto& [token, conn] : connections) update_interest(*conn);
  }

  [[nodiscard]] bool drain_complete() {
    if (in_flight.load(std::memory_order_acquire) != 0) return false;
    {
      const std::scoped_lock lock(completion_mutex);
      if (!completion_queue.empty()) return false;
    }
    if (!pending_batch.empty()) return false;
    for (const auto& [token, conn] : connections) {
      if (conn->unsent() != 0 || conn->pending != 0) return false;
    }
    return true;
  }

  void accept_ready() {
    while (true) {
      const int fd =
          ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        if (errno == EMFILE || errno == ENFILE) {
          // Out of descriptors: the connection stays queued, so the
          // level-triggered listen fd would report it on every
          // epoll_wait and the loop would spin at full CPU.  Stop
          // watching it until the next controller tick re-arms it.
          set_listen_interest(0);
          return;
        }
        return;  // transient accept failure; the loop must not die
      }
      if (connections.size() >= config.max_connections) {
        // Best-effort refusal; the connection never enters the loop.
        const std::string reply = error_reply("too many connections") + "\n";
        (void)::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      const std::uint64_t token = next_token++;
      auto conn = std::make_unique<Connection>(fd, token, config.max_line);
      add_fd(fd, token, EPOLLIN);
      connections.emplace(token, std::move(conn));
      connections_accepted.fetch_add(1, std::memory_order_relaxed);
      connections_active.store(connections.size(), std::memory_order_relaxed);
    }
  }

  void connection_ready(std::uint64_t token, std::uint32_t mask) {
    const auto it = connections.find(token);
    if (it == connections.end()) return;  // closed earlier in this wave
    Connection& conn = *it->second;
    const bool dead =
        (mask & (EPOLLERR | EPOLLHUP)) != 0 ||
        ((mask & EPOLLOUT) != 0 && !flush(conn)) ||
        ((mask & EPOLLIN) != 0 && conn.want_read && !read_ready(conn));
    if (dead) {
      close_connection(token);
      return;
    }
    finish_or_rearm(token);
  }

  /// Reads until EAGAIN/EOF, decoding and queueing requests.  Returns
  /// false when the connection is dead (reset).
  bool read_ready(Connection& conn) {
    char buffer[64 * 1024];
    while (true) {
      const ssize_t got = ::recv(conn.fd, buffer, sizeof buffer, 0);
      if (got > 0) {
        conn.decoder.feed({buffer, static_cast<std::size_t>(got)});
        drain_decoded_lines(conn);
        if (static_cast<std::size_t>(got) < sizeof buffer) return true;
        // Backpressure can flip want_read mid-read; honor it immediately.
        if (!conn.want_read) return true;
        continue;
      }
      if (got == 0) {
        conn.read_closed = true;
        return true;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }

  void drain_decoded_lines(Connection& conn) {
    const trace::Span span(trace::Stage::kServerDecode);
    LineDecoder::Line line;
    while (conn.decoder.next(line)) {
      if (line.oversized) {
        const HandleOutcome out = router.oversized_line();
        metrics.record(out.endpoint, out.error, 0);
        enqueue_ordered(conn, conn.seq_next++, out.reply);
        continue;
      }
      if (line.text.empty()) continue;
      // A line-protocol peer never opens with "GET ": this is a plain
      // HTTP client (curl, a Prometheus scraper).  Serve it raw and
      // close; any trailing header lines still in the decoder are
      // irrelevant once the connection is marked read-closed.
      if (line.text.rfind("GET ", 0) == 0) {
        serve_http_get(conn, line.text);
        break;
      }
      // Load shedding: answer immediately instead of queueing without
      // bound -- the event loop must stay responsive when the pool is
      // saturated.  Two gates: the per-op-class admission budget (adapted
      // by the controller to hold each class's p99 SLO) and the global
      // max_in_flight backstop behind it.  Sheds carry the controller's
      // retry_after_ms hint so well-behaved clients back off for about as
      // long as the congestion will last.
      const RequestPeek peek = peek_request(line.text);
      const auto cls_index = static_cast<std::size_t>(peek.cls);
      const bool over_budget =
          peek.budgeted &&
          class_in_flight[cls_index].load(std::memory_order_relaxed) >=
              controller.budget(peek.cls);
      const bool over_backstop =
          in_flight.load(std::memory_order_relaxed) + pending_batch.size() >=
          config.max_in_flight;
      if (over_budget || over_backstop) {
        requests_shed.fetch_add(1, std::memory_order_relaxed);
        // class_shed (and the class drain-time hint) belong to budget
        // sheds only: the controller reads sample.shed as "this class's
        // budget was binding", so a shed caused purely by the global
        // backstop must not ratchet that class's budget upward.
        int hint = controller.config().interval_ms;
        if (over_budget) {
          class_shed[cls_index].fetch_add(1, std::memory_order_relaxed);
          hint = controller.retry_after_ms(peek.cls);
        }
        enqueue_ordered(conn, conn.seq_next++, overloaded_reply(hint));
        continue;
      }
      if (peek.budgeted) {
        class_in_flight[cls_index].fetch_add(1, std::memory_order_relaxed);
      }
      conn.pending += 1;
      pending_batch.push_back(PendingRequest{
          conn.token, conn.seq_next++, std::move(line.text), Clock::now(), peek});
    }
    update_interest(conn);
  }

  /// Minimal HTTP scrape path so `curl http://host:port/metrics` works
  /// against the line-protocol port.  Replies HTTP/1.0-style with a
  /// Content-Length and Connection: close, then lets finish_or_rearm tear
  /// the connection down once the response is flushed.
  void serve_http_get(Connection& conn, const std::string& request_line) {
    const auto started = Clock::now();
    // Path = second space-separated token of the request line.
    const std::size_t path_begin =
        std::min(request_line.find_first_not_of(' ', 3), request_line.size());
    const std::string path = request_line.substr(
        path_begin, request_line.find(' ', path_begin) - path_begin);
    const bool found = path == "/metrics";
    const char* type = "text/plain; charset=utf-8";
    std::string body = "only /metrics is served here\n";
    if (found) {
      const trace::Span span(trace::Stage::kRouterMetrics);
      type = "text/plain; version=0.0.4; charset=utf-8";
      body = router.metrics_exposition();
    }
    // Raw bytes, no line framing.
    conn.write_buffer += std::string("HTTP/1.0 ") +
                         (found ? "200 OK" : "404 Not Found") +
                         "\r\nContent-Type: " + type + "\r\nContent-Length: " +
                         std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
    conn.read_closed = true;
    metrics.record(found ? Endpoint::kMetrics : Endpoint::kMalformed, !found,
                   count_in<std::chrono::microseconds>(Clock::now() - started));
  }

  /// Posts this wave's decoded requests to the pool in batch_size chunks,
  /// so a burst across many connections fans out over every worker.
  void dispatch_batches() {
    std::size_t begin = 0;
    while (begin < pending_batch.size()) {
      const std::size_t end =
          std::min(pending_batch.size(), begin + config.batch_size);
      std::vector<PendingRequest> chunk(
          std::make_move_iterator(pending_batch.begin() +
                                  static_cast<std::ptrdiff_t>(begin)),
          std::make_move_iterator(pending_batch.begin() +
                                  static_cast<std::ptrdiff_t>(end)));
      begin = end;
      in_flight.fetch_add(chunk.size(), std::memory_order_release);
      batches_dispatched.fetch_add(1, std::memory_order_relaxed);
      pool->post([this, work = std::move(chunk)]() mutable { run_batch(work); });
    }
    pending_batch.clear();
  }

  /// Pool-worker side: handle every request of one batch, then wake the
  /// loop once.  Completions are pushed BEFORE in_flight is decremented so
  /// drain_complete() can never observe 0 with replies still unqueued.
  void run_batch(std::vector<PendingRequest>& work) {
    std::vector<Completion> done;
    done.reserve(work.size());
    for (PendingRequest& request : work) {
      // Deadline-aware shedding: if the client's deadline passed while the
      // request sat in the queue, nobody is waiting for the answer --
      // drop it with a distinct error instead of computing it.  The
      // (queue-wait) latency is still recorded so the controller sees the
      // congestion that caused the expiry.
      const RequestPeek& peek = request.peek;
      if (peek.deadline_ms > 0) {
        const auto waited_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - request.enqueued)
                .count();
        if (waited_ms > peek.deadline_ms) {
          requests_expired.fetch_add(1, std::memory_order_relaxed);
          metrics.record(peek.endpoint, true,
                         static_cast<std::uint64_t>(waited_ms) * 1000);
          if (peek.budgeted) {
            const auto c = static_cast<std::size_t>(peek.cls);
            class_expired[c].fetch_add(1, std::memory_order_relaxed);
            class_in_flight[c].fetch_sub(1, std::memory_order_relaxed);
          }
          done.push_back(Completion{request.token, request.seq,
                                    deadline_expired_reply(waited_ms)});
          continue;
        }
      }
      // When tracing, the same two clock reads yield queue wait, compute
      // time and the end-to-end metrics latency -- no extra reads beyond
      // the one Metrics already needs.
      HandleOutcome out;
      Clock::time_point after;
      if (trace::enabled()) {
        const Clock::time_point before = Clock::now();
        trace::record_ns(trace::Stage::kServerQueueWait,
                         count_in<std::chrono::nanoseconds>(before -
                                                            request.enqueued));
        out = router.handle(request.line);
        after = Clock::now();
        trace::record_ns(trace::Stage::kServerCompute,
                         count_in<std::chrono::nanoseconds>(after - before));
      } else {
        out = router.handle(request.line);
        after = Clock::now();
      }
      const std::uint64_t micros =
          count_in<std::chrono::microseconds>(after - request.enqueued);
      metrics.record(out.endpoint, out.error, micros);
      if (peek.budgeted) {
        class_in_flight[static_cast<std::size_t>(peek.cls)].fetch_sub(
            1, std::memory_order_relaxed);
      }
      done.push_back(
          Completion{request.token, request.seq, std::move(out.reply)});
    }
    {
      const std::scoped_lock lock(completion_mutex);
      for (Completion& completion : done) {
        completion_queue.push_back(std::move(completion));
      }
    }
    in_flight.fetch_sub(work.size(), std::memory_order_release);
    std::uint64_t one = 1;
    (void)::write(completion_fd, &one, sizeof one);
  }

  void deliver_completions() {
    std::uint64_t counter = 0;
    (void)::read(completion_fd, &counter, sizeof counter);
    std::vector<Completion> ready;
    {
      const std::scoped_lock lock(completion_mutex);
      ready.swap(completion_queue);
    }
    for (Completion& completion : ready) {
      const auto it = connections.find(completion.token);
      if (it == connections.end()) continue;  // connection died meanwhile
      Connection& conn = *it->second;
      if (conn.pending > 0) conn.pending -= 1;
      enqueue_ordered(conn, completion.seq, std::move(completion.reply));
    }
    // Flush + interest updates (and possibly closes) per touched conn.
    for (const Completion& completion : ready) finish_or_rearm(completion.token);
  }

  void enqueue_reply(Connection& conn, const std::string& reply) {
    conn.write_buffer += reply;
    conn.write_buffer.push_back('\n');
  }

  /// Releases `reply` (claiming slot `seq`) strictly in request order: the
  /// reply for the next expected seq goes to the write buffer along with
  /// any consecutive successors parked in held; a reply ahead of a gap
  /// (an earlier request still in the pool) waits in held until the gap
  /// fills.  Both pooled completions and decode-time replies (sheds,
  /// oversized lines) come through here, so a pipelining client can match
  /// replies to requests positionally.
  void enqueue_ordered(Connection& conn, std::uint64_t seq,
                       const std::string& reply) {
    if (seq != conn.deliver_next) {
      conn.held_bytes += reply.size();
      conn.held.emplace(seq, reply);
      return;
    }
    enqueue_reply(conn, reply);
    conn.deliver_next += 1;
    auto next = conn.held.begin();
    while (next != conn.held.end() && next->first == conn.deliver_next) {
      enqueue_reply(conn, next->second);
      conn.held_bytes -= next->second.size();
      conn.deliver_next += 1;
      next = conn.held.erase(next);
    }
  }

  /// Writes as much buffered reply data as the socket takes.  Returns
  /// false when the connection is dead.
  bool flush(Connection& conn) {
    if (conn.unsent() != 0) {
      const trace::Span span(trace::Stage::kServerWrite);
      while (conn.unsent() != 0) {
        const ssize_t sent =
            ::send(conn.fd, conn.write_buffer.data() + conn.write_offset,
                   conn.unsent(), MSG_NOSIGNAL);
        if (sent > 0) {
          conn.write_offset += static_cast<std::size_t>(sent);
          continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;  // EPIPE / ECONNRESET
      }
    }
    if (conn.write_offset == conn.write_buffer.size()) {
      conn.write_buffer.clear();
      conn.write_offset = 0;
    } else if (conn.write_offset > (1u << 16) &&
               conn.write_offset * 2 > conn.write_buffer.size()) {
      conn.write_buffer.erase(0, conn.write_offset);
      conn.write_offset = 0;
    }
    return true;
  }

  /// Flushes, re-registers interest, and closes once a half-closed
  /// connection has nothing left to say.
  void finish_or_rearm(std::uint64_t token) {
    const auto it = connections.find(token);
    if (it == connections.end()) return;
    Connection& conn = *it->second;
    if (!flush(conn)) {
      close_connection(token);
      return;
    }
    if (conn.read_closed && conn.unsent() == 0 && conn.pending == 0) {
      close_connection(token);
      return;
    }
    update_interest(conn);
  }

  void update_interest(Connection& conn) {
    // Backpressure counts parked ordered replies (held_bytes) along with
    // the flushable tail: both are memory the peer forces us to retain.
    const bool want_read = !draining && !conn.read_closed &&
                           conn.unsent() + conn.held_bytes <
                               config.max_write_buffer;
    const bool want_write = conn.unsent() != 0;
    if (want_read == conn.want_read && want_write == conn.want_write) return;
    conn.want_read = want_read;
    conn.want_write = want_write;
    epoll_event event{};
    event.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    event.data.u64 = conn.token;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, conn.fd, &event);
  }

  /// Arms (EPOLLIN) or pauses (0) the listen fd's readiness reports.
  void set_listen_interest(std::uint32_t events) {
    if (listen_fd < 0) return;  // closed by the drain
    epoll_event event{};
    event.events = events;
    event.data.u64 = kListenToken;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, listen_fd, &event);
    accepting = events != 0;
  }

  void close_connection(std::uint64_t token) {
    const auto it = connections.find(token);
    if (it == connections.end()) return;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_DEL, it->second->fd, nullptr);
    ::close(it->second->fd);
    connections.erase(it);
    connections_active.store(connections.size(), std::memory_order_relaxed);
  }

  // ---- state ------------------------------------------------------------

  ServerConfig config;
  int listen_fd{-1};
  /// False while accept is paused for lack of descriptors.
  bool accepting{true};
  int stop_fd{-1};
  int completion_fd{-1};
  int timer_fd{-1};
  int epoll_fd{-1};
  std::uint16_t bound_port{0};
  Clock::time_point start_time;

  /// Overload control.  The controller itself is event-loop-thread-only;
  /// the atomic mirrors below are the cross-thread read surface (stats,
  /// metrics exposition) and the worker-side in-flight accounting.
  OverloadController controller;
  std::array<std::atomic<std::size_t>, kBudgetClassCount> class_budget{};
  std::array<std::atomic<std::uint64_t>, kBudgetClassCount> class_in_flight{};
  std::array<std::atomic<std::uint64_t>, kBudgetClassCount> class_shed{};
  std::array<std::atomic<std::uint64_t>, kBudgetClassCount> class_expired{};
  std::array<std::atomic<int>, kBudgetClassCount> class_retry_ms{};
  std::atomic<std::uint64_t> requests_expired{0};
  std::atomic<std::uint64_t> controller_ticks{0};
  /// Previous-tick snapshots (event-loop thread only).
  std::array<Histogram, kBudgetClassCount> tick_prev_latency{};
  std::array<std::uint64_t, kBudgetClassCount> tick_prev_requests{};
  std::array<std::uint64_t, kBudgetClassCount> tick_prev_shed{};

  Metrics metrics;
  std::unordered_map<std::uint64_t, std::unique_ptr<Connection>> connections;
  std::uint64_t next_token{kFirstConnectionToken};
  std::vector<PendingRequest> pending_batch;

  std::mutex completion_mutex;
  std::vector<Completion> completion_queue;

  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_active{0};
  std::atomic<std::uint64_t> requests_shed{0};
  std::atomic<std::uint64_t> batches_dispatched{0};
  std::atomic<std::uint64_t> in_flight{0};

  bool draining{false};
  Clock::time_point drain_deadline;

  Router router;
  // Reset FIRST in ~Impl, joining every worker while the router, metrics
  // and completion queue the in-flight batches touch are still alive.
  // (Batches still queued at that point are dropped by the pool.)
  std::unique_ptr<ThreadPool> pool;
};

Server::Server(ServerConfig config) : impl_(std::make_unique<Impl>(std::move(config))) {}

Server::~Server() = default;

std::uint16_t Server::port() const noexcept { return impl_->bound_port; }

void Server::run() { impl_->run(); }

void Server::request_stop() noexcept {
  const int fd = impl_->stop_fd;
  if (fd < 0) return;
  std::uint64_t one = 1;
  (void)::write(fd, &one, sizeof one);
}

const Metrics& Server::metrics() const noexcept { return impl_->metrics; }

RuntimeStats Server::runtime_stats() const noexcept {
  return impl_->runtime_snapshot();
}

const ServerConfig& Server::config() const noexcept { return impl_->config; }

}  // namespace rmts::server
