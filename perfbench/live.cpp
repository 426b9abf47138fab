#include "live.hpp"

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>
#include <thread>

#include "common/rng.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace perfbench {

namespace {

using rmts::server::Client;
using rmts::server::TransportError;

constexpr int kClientTimeoutMs = 5000;
/// The injected fault hits this request of connection 0's first window.
constexpr std::uint64_t kInjectAt = 100;
/// Bounds the set-up fill should the reject streak never come.
constexpr std::size_t kMaxFillOps = 100'000;
/// Session-op log entries reserved per connection: address space only,
/// pages become resident as the log fills, so the log's resident size is
/// its length (see LiveResult::peak_rss_mb).  Several times the ops one
/// connection runs in a run today; a longer log just reallocates.
constexpr std::size_t kLogReserve = std::size_t{2} << 20;

/// Replies are rendered without whitespace (JsonWriter), so exact
/// substring probes are reliable.
std::optional<std::uint64_t> u64_after(std::string_view reply,
                                       std::string_view key) {
  const std::size_t pos = reply.find(key);
  if (pos == std::string_view::npos) return std::nullopt;
  std::size_t i = pos + key.size();
  std::uint64_t value = 0;
  const std::size_t first = i;
  while (i < reply.size() && reply[i] >= '0' && reply[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(reply[i] - '0');
    ++i;
  }
  if (i == first) return std::nullopt;
  return value;
}

std::optional<bool> bool_after(std::string_view reply, std::string_view key) {
  const std::size_t pos = reply.find(key);
  if (pos == std::string_view::npos) return std::nullopt;
  const std::string_view rest = reply.substr(pos + key.size());
  if (rest.starts_with("true")) return true;
  if (rest.starts_with("false")) return false;
  return std::nullopt;
}

/// Flips the first verdict in a reply (the corrupt injection).
void corrupt(std::string& reply) {
  static constexpr std::pair<std::string_view, std::string_view> kFlips[] = {
      {"\"accepted\":true", "\"accepted\":false"},
      {"\"accepted\":false", "\"accepted\":true"},
      {"\"departed\":true", "\"departed\":false"},
      {"\"departed\":false", "\"departed\":true"},
  };
  for (const auto& [from, to] : kFlips) {
    const std::size_t pos = reply.find(from);
    if (pos != std::string::npos) {
      reply.replace(pos, from.size(), to);
      return;
    }
  }
}

std::size_t pick(rmts::Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One connection's generator state.  Owned by one thread at a time.
struct Conn {
  Conn(std::size_t i, Clock::time_point epoch, std::size_t phases)
      : index(i),
        stats(phases),
        spans(std::make_unique<SpanLog>(epoch, static_cast<std::uint32_t>(i))) {}

  std::size_t index;
  std::unique_ptr<Client> client;
  rmts::Rng rng{1};
  std::uint64_t session{0};
  std::vector<std::uint64_t> tickets;
  std::vector<ChurnOp> log;
  /// log.size(), published for the main thread's memory reading.
  std::shared_ptr<std::atomic<std::size_t>> logged =
      std::make_shared<std::atomic<std::size_t>>(0);
  std::vector<PhaseStats> stats;
  std::unique_ptr<SpanLog> spans;
  std::uint64_t sent{0};
  std::uint64_t first_window_sent{0};
  bool alive{true};
};

/// The server plus the thread running its event loop; stopping and
/// joining on destruction keeps every exit path clean.
class LiveServer {
 public:
  explicit LiveServer(rmts::server::ServerConfig config)
      : server_(std::move(config)), loop_([this] {
          try {
            server_.run();
          } catch (const std::exception& error) {
            std::cerr << "perfbench: server loop failed: " << error.what()
                      << '\n';
          }
        }) {}
  ~LiveServer() {
    server_.request_stop();
    loop_.join();
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

  [[nodiscard]] rmts::server::Server& server() noexcept { return server_; }

 private:
  rmts::server::Server server_;
  std::thread loop_;
};

/// What every connection thread shares: the workload, the current phase
/// (set by the main thread) and the request/check step.
class ClosedLoop {
 public:
  ClosedLoop(const LiveConfig& config, std::size_t phases)
      : config_(config), drain_(phases - 1), traced_(phases, false) {
    for (std::size_t w = 0; w < config.windows.size(); ++w) {
      traced_[kFirstWindow + w] = config.windows[w].traced;
    }
  }

  std::atomic<std::size_t>& phase() noexcept { return phase_; }
  void set_port(std::uint16_t port) noexcept { port_ = port; }
  [[nodiscard]] std::size_t drain() const noexcept { return drain_; }

  /// Set-up for one connection: connect and, for sessions, open one and
  /// admit until `fill_reject_streak` rejections in a row.  Returns false
  /// on any failure.
  bool connect_and_fill(Conn& c) {
    c.rng = rmts::Rng(config_.seed).fork(0x1000 + c.index);
    c.session = 0;
    c.tickets.clear();
    c.log.clear();
    c.stats[kSetupPhase] = PhaseStats{};
    c.alive = true;
    try {
      c.client = connect(c);
      if (config_.churn == nullptr) return true;
      PhaseStats& s = c.stats[kSetupPhase];
      ++s.attempted;
      const std::string reply = c.client->request(config_.churn->open_line);
      c.session = u64_after(reply, "\"session\":").value_or(0);
      if (!reply.starts_with("{\"ok\":true") || c.session == 0) {
        ++s.error;
        return false;
      }
      ++s.ok;
      std::size_t streak = 0;
      for (std::size_t n = 0; streak < config_.churn->fill_reject_streak; ++n) {
        if (n == kMaxFillOps) return false;
        const std::optional<bool> admitted = step(c, kSetupPhase, true);
        if (!admitted) return false;
        streak = *admitted ? 0 : streak + 1;
      }
      return true;
    } catch (const TransportError& error) {
      std::cerr << "perfbench: set-up of connection " << c.index
                << " failed: " << error.what() << '\n';
      return false;
    }
  }

  /// Generator loop: requests until the drain phase or a dead connection.
  void run(Conn& c) {
    while (c.alive) {
      const std::size_t p = phase_.load(std::memory_order_acquire);
      if (p >= drain_) break;
      (void)step(c, p, false);
    }
  }

 private:
  /// Sends one request, checks its reply and records it in the phase the
  /// reply arrived in.  Returns an admit's verdict when it was checked
  /// and ok, else nullopt.
  std::optional<bool> step(Conn& c, std::size_t start_phase, bool fill) {
    const AdmitCase* admit_case = nullptr;
    std::string churn_line;
    std::string_view line;
    bool depart = false;
    std::size_t slot = 0;
    std::size_t task = 0;
    if (config_.admit != nullptr) {
      admit_case = &config_.admit->pool[pick(c.rng, config_.admit->pool.size())];
      line = admit_case->line;
    } else {
      const ChurnWorkload& churn = *config_.churn;
      depart = !fill && !c.tickets.empty() &&
               c.rng.uniform() < churn.depart_fraction;
      if (depart) {
        slot = pick(c.rng, c.tickets.size());
        churn_line =
            rmts::server::make_session_depart_request(c.session, c.tickets[slot]);
      } else {
        task = pick(c.rng, churn.tasks.size());
        const auto [wcet, period] = churn.tasks[task];
        churn_line =
            rmts::server::make_session_admit_request(c.session, wcet, period);
      }
      line = churn_line;
    }
    const bool inject = (config_.inject == Inject::kCorrupt ||
                         config_.inject == Inject::kDrop) &&
                        c.index == 0 && start_phase == kFirstWindow &&
                        ++c.first_window_sent == kInjectAt;
    const std::uint64_t seq = c.sent++;

    std::string reply;
    bool replied = true;
    const Clock::time_point start = Clock::now();
    try {
      if (inject && config_.inject == Inject::kDrop) {
        c.client->send_line(line);
        replied = false;
      } else {
        reply = c.client->request(line);
      }
    } catch (const TransportError& error) {
      std::cerr << "perfbench: connection " << c.index << ": " << error.what()
                << '\n';
      replied = false;
    }
    const Clock::time_point end = Clock::now();

    const std::size_t phase = start_phase == kSetupPhase
                                  ? kSetupPhase
                                  : phase_.load(std::memory_order_acquire);
    PhaseStats& s = c.stats[phase];
    ++s.attempted;
    if (!replied) {
      ++s.transport;
      // Whether the server applied the request is unknown.  An admit
      // connection starts over on a fresh socket; a session connection
      // stops, as its session may or may not hold the op.
      c.client.reset();
      c.alive = false;
      if (config_.admit != nullptr) {
        try {
          c.client = connect(c);
          c.alive = true;
        } catch (const TransportError&) {
        }
      }
      return std::nullopt;
    }
    if (inject) corrupt(reply);
    if (phase >= kFirstWindow) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          end - start)
                          .count();
      s.latency_ns.push_back(static_cast<std::uint32_t>(std::min<std::int64_t>(
          ns, std::numeric_limits<std::uint32_t>::max())));
    }
    if (traced_[phase]) {
      c.spans->add(SpanName::kClientRequest, request_id(c.index, seq), -1,
                   start, end);
    }

    if (!reply.starts_with("{\"ok\":true")) {
      if (reply.find("\"error\":\"overloaded\"") != std::string::npos) {
        ++s.shed;
      } else if (reply.find("\"error\":\"deadline_expired\"") !=
                 std::string::npos) {
        ++s.expired;
      } else {
        ++s.error;
      }
      return std::nullopt;
    }

    if (admit_case != nullptr) {
      const bool matched =
          bool_after(reply, "\"accepted\":") == admit_case->accepted &&
          u64_after(reply, "\"splits\":") == admit_case->splits &&
          u64_after(reply, "\"subtasks\":") == admit_case->subtasks;
      if (!matched) {
        ++s.mismatch;
        return std::nullopt;
      }
      ++s.ok;
      if (admit_case->accepted) {
        ++s.accepted;
        s.accepted_utilization += admit_case->normalized_utilization;
      }
      return admit_case->accepted;
    }

    // A session op: its verdict is checked later, by replaying the log.
    ChurnOp op;
    op.seq = static_cast<std::uint32_t>(seq);
    op.phase = static_cast<std::uint8_t>(phase);
    op.depart = depart;
    const std::optional<bool> verdict =
        bool_after(reply, depart ? "\"departed\":" : "\"accepted\":");
    if (!verdict) {
      ++s.mismatch;
      c.alive = false;  // the log no longer mirrors the session
      return std::nullopt;
    }
    op.verdict = *verdict;
    if (depart) {
      op.ticket = c.tickets[slot];
      c.tickets[slot] = c.tickets.back();
      c.tickets.pop_back();
    } else {
      op.task = static_cast<std::uint32_t>(task);
      if (op.verdict) {
        op.ticket = u64_after(reply, "\"ticket\":").value_or(0);
        op.parts = static_cast<std::uint16_t>(
            u64_after(reply, "\"parts\":").value_or(0));
        if (op.ticket != 0) c.tickets.push_back(op.ticket);
      }
    }
    c.log.push_back(op);
    c.logged->store(c.log.size(), std::memory_order_relaxed);
    ++s.ok;
    return depart ? std::nullopt : std::optional<bool>(op.verdict);
  }

  [[nodiscard]] std::unique_ptr<Client> connect(const Conn& c) const {
    return std::make_unique<Client>("127.0.0.1", port_, kClientTimeoutMs,
                                    c.index + 1);
  }

  const LiveConfig& config_;
  std::size_t drain_;
  std::vector<bool> traced_;
  std::atomic<std::size_t> phase_{kSetupPhase};
  std::uint16_t port_{0};
};

/// One generator thread per live connection, running the closed loop from
/// the warm-up phase; destruction sends them to the drain phase and joins
/// them, on every exit path.
class Generators {
 public:
  Generators(ClosedLoop& closed_loop, std::vector<Conn>& conns)
      : closed_loop_(closed_loop) {
    closed_loop_.phase().store(kWarmupPhase, std::memory_order_release);
    try {
      threads_.reserve(conns.size());
      for (Conn& c : conns) {
        if (!c.alive || !c.client) continue;
        threads_.emplace_back([this, &c] { closed_loop_.run(c); });
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Generators() { stop(); }
  Generators(const Generators&) = delete;
  Generators& operator=(const Generators&) = delete;

  /// The threads' CPU clocks, for the per-thread CPU readings.
  [[nodiscard]] std::vector<clockid_t> cpu_clocks() {
    std::vector<clockid_t> clocks;
    for (std::thread& t : threads_) {
      clockid_t clock{};
      if (pthread_getcpuclockid(t.native_handle(), &clock) == 0) {
        clocks.push_back(clock);
      }
    }
    return clocks;
  }

 private:
  void stop() {
    closed_loop_.phase().store(closed_loop_.drain(), std::memory_order_release);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

  ClosedLoop& closed_loop_;
  std::vector<std::thread> threads_;
};

}  // namespace

CpuTicks read_cpu_ticks() {
  // The aggregate line: cpu user nice system idle iowait irq softirq steal
  std::ifstream stat("/proc/stat");
  std::string label;
  std::uint64_t fields[8] = {};
  if (!(stat >> label) || label != "cpu") return {};
  for (std::uint64_t& f : fields) {
    if (!(stat >> f)) return {};
  }
  CpuTicks out;
  for (const std::uint64_t f : fields) out.total += f;
  out.steal = fields[7];
  return out;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

void PhaseStats::merge(const PhaseStats& other) {
  attempted += other.attempted;
  ok += other.ok;
  mismatch += other.mismatch;
  shed += other.shed;
  expired += other.expired;
  error += other.error;
  transport += other.transport;
  accepted += other.accepted;
  accepted_utilization += other.accepted_utilization;
  latency_ns.insert(latency_ns.end(), other.latency_ns.begin(),
                    other.latency_ns.end());
}

LiveResult run_live(const LiveConfig& config) {
  rmts::trace::set_enabled(false);
  std::vector<Window> plan = config.windows;
  plan.insert(plan.end(), config.extra_windows,
              Window{config.windows.back().seconds, false});
  const std::size_t phases = kFirstWindow + plan.size() + 1;  // + drain
  ClosedLoop closed_loop(config, phases);

  rmts::server::ServerConfig server_config;
  if (config.inject == Inject::kShed) {
    server_config.overload.adaptive = false;
    server_config.overload.initial_budget = 1;
  }

  std::vector<Conn> conns;
  conns.reserve(config.connections);
  for (std::size_t c = 0; c < config.connections; ++c) {
    conns.emplace_back(c, config.epoch, phases);
  }

  LiveResult result;
  std::unique_ptr<LiveServer> live;
  // One set-up: a fresh server, then every connection connected (and, for
  // sessions, opened and filled) at once.  Returns its wall time.
  const auto set_up = [&] {
    if (live) {
      for (Conn& c : conns) c.client.reset();
      live.reset();
    }
    if (config.churn != nullptr) {
      for (Conn& c : conns) {
        // A fresh reservation returns the last log's pages to the system.
        c.log = std::vector<ChurnOp>();
        c.log.reserve(kLogReserve);
        c.logged->store(0, std::memory_order_relaxed);
      }
    }
    std::atomic<std::size_t> failures{0};
    const Clock::time_point start = Clock::now();
    live = std::make_unique<LiveServer>(server_config);
    closed_loop.set_port(live->server().port());
    {
      std::vector<std::thread> setup;
      setup.reserve(conns.size());
      for (Conn& c : conns) {
        setup.emplace_back([&closed_loop, &c, &failures] {
          if (!closed_loop.connect_and_fill(c)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
      for (std::thread& t : setup) t.join();
    }
    const double seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    result.setup_failures += failures.load();
    return seconds;
  };

  // The first server only carries the wait for a calm host: its warm-up
  // goes on a second at a time while the last second was not calm.  A
  // shared host's neighbours come and go in stretches of tens of seconds
  // to minutes, and while they are busy the hypervisor runs this
  // machine's CPUs only part of the time: a closed loop that sleeps and
  // wakes every few microseconds then loses up to two thirds of its
  // throughput and several times its p99, and a set-up takes twice as
  // long.  Starting in a calm stretch keeps them out of many runs.  Steal
  // only accrues while this machine wants to run, so it is read under the
  // workload itself.
  (void)set_up();
  {
    const Generators generators(closed_loop, conns);
    const Clock::time_point wait_start = Clock::now();
    for (;;) {
      const CpuTicks before = read_cpu_ticks();
      std::this_thread::sleep_for(std::chrono::seconds(1));
      result.calm_steal = steal_share(before, read_cpu_ticks());
      result.calm_wait_seconds =
          std::chrono::duration<double>(Clock::now() - wait_start).count();
      if (result.calm_steal <= kCalmSteal ||
          result.calm_wait_seconds >= 1.0 + config.max_calm_wait_seconds) {
        break;
      }
    }
  }
  // The timed set-ups follow that calm second; the last one's server is
  // the one measured.
  for (std::size_t r = 0; r < config.setups; ++r) {
    result.setup_seconds.push_back(set_up());
  }
  result.server_workers = live->server().runtime_stats().workers;

  const auto capture = [&](bool with_trace, const std::vector<clockid_t>& gen,
                           const CpuTicks& host) {
    Capture cap;
    cap.host = host;
    cap.runtime = live->server().runtime_stats();
    if (with_trace) {
      cap.trace = std::make_shared<const rmts::trace::Snapshot>(
          rmts::trace::snapshot());
    }
    cap.process_cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
    for (const clockid_t clock : gen) cap.generator_cpu_s += cpu_seconds(clock);
    return cap;
  };

  std::vector<Capture> captures;
  std::vector<Clock::time_point> flips;
  {
    Generators generators(closed_loop, conns);
    const std::vector<clockid_t> clocks = generators.cpu_clocks();
    // The measured server's warm-up lets the first-window effects (thread
    // placement, socket buffers, allocator and memo caches) settle.
    std::this_thread::sleep_for(std::chrono::duration<double>(config.warmup_seconds));
    // Boundary k: window k-1 has ended; whether window k runs is decided,
    // tracing is switched for it, the readings are taken, then the phase
    // flips.  Window k is bounded by flips k and k+1.
    const std::size_t planned = config.windows.size();
    std::size_t calm = 0;
    for (std::size_t k = 0;; ++k) {
      const CpuTicks host = read_cpu_ticks();
      if (k > 0 && steal_share(captures.back().host, host) <= kCalmSteal) ++calm;
      if (k == planned) {
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        std::size_t log_bytes = 0;
        for (const Conn& c : conns) {
          log_bytes += c.logged->load(std::memory_order_relaxed) * sizeof(ChurnOp);
        }
        result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0 -
                             static_cast<double>(log_bytes) / (1024.0 * 1024.0);
      }
      const bool run =
          k < planned || (k < plan.size() && calm < config.calm_windows);
      const bool next_traced = run && plan[k].traced;
      const bool prev_traced = k > 0 && plan[k - 1].traced;
      rmts::trace::set_enabled(next_traced);
      captures.push_back(capture(next_traced || prev_traced, clocks, host));
      flips.push_back(Clock::now());
      closed_loop.phase().store(run ? kFirstWindow + k : closed_loop.drain(),
                                std::memory_order_release);
      if (!run) break;
      std::this_thread::sleep_until(
          flips.back() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(plan[k].seconds)));
    }
  }

  for (Conn& c : conns) c.client.reset();
  live.reset();

  result.phases.resize(phases);
  for (const Conn& c : conns) {
    for (std::size_t p = 0; p < phases; ++p) result.phases[p].merge(c.stats[p]);
  }
  for (std::size_t k = 0; k + 1 < flips.size(); ++k) {
    WindowResult w;
    w.window = plan[k];
    w.elapsed_s = std::chrono::duration<double>(flips[k + 1] - flips[k]).count();
    w.before = captures[k];
    w.after = captures[k + 1];
    result.windows.push_back(std::move(w));
  }
  for (Conn& c : conns) {
    result.churn_logs.push_back(std::move(c.log));
    result.spans.push_back(std::move(c.spans));
  }
  return result;
}

}  // namespace perfbench
