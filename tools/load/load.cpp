#include "load/load.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "server/client.hpp"
#include "tasks/task_set.hpp"
#include "workload/generators.hpp"

namespace rmts::server {

namespace {

using Clock = std::chrono::steady_clock;

/// One op's pre-encoded request strings (one per pooled task set; stats
/// needs only one but keeps the same shape for uniform indexing).
struct OpRequests {
  OpClass cls{OpClass::kAdmit};
  double weight{0.0};
  std::vector<std::string> lines;
};

/// Replies are rendered by JsonWriter without whitespace, so exact
/// substring probes are reliable (and far cheaper than parsing).
bool contains(const std::string& reply, std::string_view needle) {
  return reply.find(needle) != std::string::npos;
}

enum class ReplyKind { kOk, kShed, kExpired, kError };

ReplyKind classify(const std::string& reply, OpClass cls, LoadReport& report) {
  if (contains(reply, "\"ok\":true")) {
    ++report.ok;
    ++report.per_op_ok[static_cast<std::size_t>(cls)];
    if (contains(reply, "\"accepted\":true")) ++report.accepted;
    return ReplyKind::kOk;
  }
  if (contains(reply, "\"error\":\"overloaded\"")) {
    ++report.shed;
    return ReplyKind::kShed;
  }
  if (contains(reply, "\"error\":\"deadline_expired\"")) {
    ++report.expired;
    return ReplyKind::kExpired;
  }
  ++report.errors;
  return ReplyKind::kError;
}

/// Weighted op pick, then a pooled request line within it.
struct Picked {
  std::size_t op_index{0};
  std::size_t line_index{0};
};

Picked pick_request(Rng& rng, const std::vector<OpRequests>& ops,
                    double total_weight) {
  Picked p;
  double roll = rng.uniform() * total_weight;
  while (p.op_index + 1 < ops.size() && roll >= ops[p.op_index].weight) {
    roll -= ops[p.op_index].weight;
    ++p.op_index;
  }
  p.line_index = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(ops[p.op_index].lines.size()) - 1));
  return p;
}

/// Digits immediately following `key` in a whitespace-free JSON reply;
/// 0 when the key is absent (our ids and tickets start at 1).
std::uint64_t parse_u64_field(const std::string& reply,
                              std::string_view key) noexcept {
  const std::size_t pos = reply.find(key);
  if (pos == std::string::npos) return 0;
  std::size_t i = pos + key.size();
  std::uint64_t value = 0;
  bool any = false;
  while (i < reply.size() && reply[i] >= '0' && reply[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(reply[i] - '0');
    any = true;
    ++i;
  }
  return any ? value : 0;
}

/// One connection's session-churn loop: open a private session, then an
/// admit/depart mix with live-ticket tracking until the deadline.
void run_session_churn(Client& client, const LoadConfig& config,
                       const RetryPolicy& policy,
                       std::span<const std::pair<Time, Time>> churn_pool,
                       Clock::time_point deadline, LoadReport& report,
                       Rng& pick) {
  const std::string open_line =
      make_session_open_request(config.processors, /*split=*/true);
  const std::string open_reply = client.request(open_line);
  const std::uint64_t session = parse_u64_field(open_reply, "\"session\":");
  if (session == 0) {
    // The registry is full (or the reply was an error): nothing to churn.
    ++report.errors;
    return;
  }

  std::vector<std::uint64_t> tickets;
  while (Clock::now() < deadline) {
    const bool depart =
        !tickets.empty() && pick.uniform() < config.churn_rate;
    std::size_t slot = 0;
    std::string line;
    OpClass cls;
    if (depart) {
      slot = static_cast<std::size_t>(pick.uniform_int(
          0, static_cast<std::int64_t>(tickets.size()) - 1));
      line = make_session_depart_request(session, tickets[slot], -1,
                                         config.deadline_ms);
      cls = OpClass::kSessionDepart;
    } else {
      const auto& [wcet, period] = churn_pool[static_cast<std::size_t>(
          pick.uniform_int(0, static_cast<std::int64_t>(churn_pool.size()) -
                                  1))];
      line = make_session_admit_request(session, wcet, period, -1,
                                        config.deadline_ms);
      cls = OpClass::kSessionAdmit;
    }

    const auto sent = Clock::now();
    std::string reply;
    if (config.retry) {
      RetryResult r = client.request_with_retry(line, policy);
      report.requests += static_cast<std::uint64_t>(
          r.attempts > 1 ? r.attempts - 1 : 0);
      report.shed +=
          static_cast<std::uint64_t>(r.attempts > 1 ? r.attempts - 1 : 0);
      report.retries += static_cast<std::uint64_t>(r.attempts - 1);
      reply = std::move(r.reply);
    } else {
      reply = client.request(line);
    }
    const auto micros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              sent)
            .count());

    ++report.offered;
    ++report.requests;
    const ReplyKind kind = classify(reply, cls, report);
    report.latency_us.record(micros);
    report.per_op_latency_us[static_cast<std::size_t>(cls)].record(micros);

    // Ticket bookkeeping only moves on an ok reply: a shed/expired admit
    // placed nothing, a shed depart removed nothing.
    if (kind != ReplyKind::kOk) continue;
    if (depart) {
      // The server forgets the ticket even on departed:false (it never
      // existed there); either way it must leave the live list.
      tickets[slot] = tickets.back();
      tickets.pop_back();
    } else {
      const std::uint64_t ticket = parse_u64_field(reply, "\"ticket\":");
      if (ticket != 0) tickets.push_back(ticket);
    }
  }
  // Best-effort close so a long bench run does not leak registry slots;
  // the reply still counts toward the latency-free totals.
  try {
    (void)client.request(make_session_close_request(session));
  } catch (const TransportError&) {
    // The measurement window is over; a lost close changes nothing.
  }
}

/// Poisson arrival state for one open-loop sender: draws exponential
/// inter-arrival gaps at the instantaneous rate (base or burst).
struct ArrivalProcess {
  double base_rate;  ///< requests/second for this connection
  const LoadConfig& config;
  Clock::time_point start;
  Rng rng;

  [[nodiscard]] bool in_burst(Clock::time_point now) const {
    if (config.burst_factor <= 1.0 || config.burst_period_s <= 0.0 ||
        config.burst_duration_s <= 0.0) {
      return false;
    }
    const double elapsed = std::chrono::duration<double>(now - start).count();
    return std::fmod(elapsed, config.burst_period_s) < config.burst_duration_s;
  }

  [[nodiscard]] Clock::duration next_gap(Clock::time_point now) {
    const double rate =
        base_rate * (in_burst(now) ? config.burst_factor : 1.0);
    const double gap_s = -std::log(1.0 - rng.uniform()) / std::max(rate, 1e-9);
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(std::min(gap_s, 3600.0)));
  }
};

/// One sent-but-unanswered request; the protocol replies in order, so a
/// FIFO of these matches replies back to their op class and send time.
struct PendingSend {
  std::size_t op_index{0};
  std::size_t line_index{0};
  int attempt{1};
  Clock::time_point sent;
};

/// A shed request waiting out its backoff before the sender re-offers it.
struct RetryEntry {
  std::size_t op_index{0};
  std::size_t line_index{0};
  int attempt{2};
  Clock::time_point not_before;
};

/// Everything one open-loop connection's sender/receiver pair shares.
struct OpenLoopChannel {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<PendingSend> outstanding;
  std::deque<RetryEntry> retries;
  bool sender_done{false};
  std::atomic<bool> failed{false};
};

/// Receiver half: matches replies to the outstanding FIFO, records
/// latency, and (when retrying) re-enqueues sheds for the sender.
void open_loop_receiver(Client& client, const LoadConfig& config,
                        const RetryPolicy& policy,
                        const std::vector<OpRequests>& ops,
                        OpenLoopChannel& ch, LoadReport& report, Rng jitter) {
  try {
    for (;;) {
      PendingSend entry;
      {
        std::unique_lock lock(ch.mu);
        ch.cv.wait(lock, [&] {
          return !ch.outstanding.empty() || ch.sender_done ||
                 ch.failed.load(std::memory_order_relaxed);
        });
        if (ch.failed.load(std::memory_order_relaxed)) return;
        if (ch.outstanding.empty()) {
          if (ch.sender_done) return;
          continue;
        }
        entry = ch.outstanding.front();
        ch.outstanding.pop_front();
      }

      const std::string reply = client.read_reply();
      const auto now = Clock::now();
      const auto micros = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                entry.sent)
              .count());

      ++report.requests;
      const OpClass cls = ops[entry.op_index].cls;
      const ReplyKind kind = classify(reply, cls, report);
      report.latency_us.record(micros);
      report.per_op_latency_us[static_cast<std::size_t>(cls)].record(micros);

      if (kind == ReplyKind::kShed && config.retry &&
          entry.attempt < std::max(config.max_attempts, 1)) {
        const int hint = Client::parse_retry_after_ms(reply);
        const std::int64_t backoff =
            retry_backoff_ms(policy, entry.attempt, hint, jitter);
        const std::scoped_lock lock(ch.mu);
        if (!ch.sender_done) {
          ch.retries.push_back({entry.op_index, entry.line_index,
                                entry.attempt + 1,
                                now + std::chrono::milliseconds(backoff)});
          ch.cv.notify_all();
        }
      }
    }
  } catch (const TransportError&) {
    ++report.transport_errors;
    ch.failed.store(true, std::memory_order_relaxed);
    ch.cv.notify_all();
  }
}

/// Sender half: Poisson first-attempt arrivals plus due retries, all
/// pipelined without waiting for replies.
void open_loop_sender(Client& client, ArrivalProcess& arrivals,
                      const std::vector<OpRequests>& ops, double total_weight,
                      Clock::time_point deadline, OpenLoopChannel& ch,
                      LoadReport& report, Rng pick) {
  try {
    auto next_send = arrivals.start + arrivals.next_gap(arrivals.start);
    for (;;) {
      if (ch.failed.load(std::memory_order_relaxed)) break;
      const auto now = Clock::now();
      if (now >= deadline) break;

      // Due retries jump the queue: their arrival already happened.
      std::vector<RetryEntry> due;
      {
        const std::scoped_lock lock(ch.mu);
        while (!ch.retries.empty() && ch.retries.front().not_before <= now) {
          due.push_back(ch.retries.front());
          ch.retries.pop_front();
        }
      }
      for (const RetryEntry& r : due) {
        client.send_line(ops[r.op_index].lines[r.line_index]);
        ++report.retries;
        const std::scoped_lock lock(ch.mu);
        ch.outstanding.push_back(
            {r.op_index, r.line_index, r.attempt, Clock::now()});
        ch.cv.notify_all();
      }

      if (next_send <= now) {
        const Picked p = pick_request(pick, ops, total_weight);
        client.send_line(ops[p.op_index].lines[p.line_index]);
        ++report.offered;
        {
          const std::scoped_lock lock(ch.mu);
          ch.outstanding.push_back(
              {p.op_index, p.line_index, 1, Clock::now()});
          ch.cv.notify_all();
        }
        next_send += arrivals.next_gap(now);
        continue;
      }

      auto wake = std::min(next_send, deadline);
      {
        const std::scoped_lock lock(ch.mu);
        for (const RetryEntry& r : ch.retries) {
          wake = std::min(wake, r.not_before);
        }
      }
      std::this_thread::sleep_until(wake);
    }
  } catch (const TransportError&) {
    ++report.transport_errors;
    ch.failed.store(true, std::memory_order_relaxed);
  }
  const std::scoped_lock lock(ch.mu);
  ch.sender_done = true;
  ch.cv.notify_all();
}

}  // namespace

void LoadReport::merge(const LoadReport& other) {
  requests += other.requests;
  offered += other.offered;
  retries += other.retries;
  ok += other.ok;
  accepted += other.accepted;
  shed += other.shed;
  expired += other.expired;
  errors += other.errors;
  transport_errors += other.transport_errors;
  if (other.elapsed_seconds > elapsed_seconds) {
    elapsed_seconds = other.elapsed_seconds;
  }
  latency_us.merge(other.latency_us);
  for (std::size_t op = 0; op < kOpClassCount; ++op) {
    per_op_ok[op] += other.per_op_ok[op];
    per_op_latency_us[op].merge(other.per_op_latency_us[op]);
  }
}

LoadReport run_load(const LoadConfig& config) {
  if (config.connections == 0) {
    throw InvalidConfigError("run_load: connections must be >= 1");
  }
  if (!(config.seconds > 0.0)) {
    throw InvalidConfigError("run_load: seconds must be positive");
  }
  if (config.port == 0) {
    throw InvalidConfigError("run_load: port must be set");
  }
  if (config.task_pool == 0) {
    throw InvalidConfigError("run_load: task_pool must be >= 1");
  }
  if (config.offered_qps < 0.0 || !std::isfinite(config.offered_qps)) {
    throw InvalidConfigError("run_load: offered_qps must be finite and >= 0");
  }
  if (config.session && config.offered_qps > 0.0) {
    // Departs need the admit reply's ticket before they can be issued, so
    // churn is inherently closed-loop per connection.
    throw InvalidConfigError("run_load: session churn is closed-loop only");
  }
  if (!(config.churn_rate >= 0.0 && config.churn_rate <= 1.0)) {
    throw InvalidConfigError("run_load: churn_rate must be in [0, 1]");
  }

  // Pre-generate the task-set pool and render every request string once;
  // the hot loop only moves bytes.
  WorkloadConfig workload;
  workload.tasks = config.tasks;
  workload.processors = config.processors;
  workload.normalized_utilization = config.normalized_utilization;
  Rng rng(config.seed);
  std::vector<TaskSet> pool;
  pool.reserve(config.task_pool);
  for (std::size_t i = 0; i < config.task_pool; ++i) {
    Rng sample = rng.fork(i);
    pool.push_back(generate(sample, workload));
  }

  // Session churn draws individual tasks, not whole sets: flatten the
  // pool into (wcet, period) pairs once.
  std::vector<std::pair<Time, Time>> churn_pool;
  if (config.session) {
    for (const TaskSet& tasks : pool) {
      for (const Task& task : tasks) {
        churn_pool.emplace_back(task.wcet, task.period);
      }
    }
  }

  std::vector<OpRequests> ops;
  const auto add_op = [&](OpClass cls, double weight, auto&& encode) {
    if (config.session) return;  // the churn loop builds its own requests
    if (weight <= 0.0) return;
    OpRequests op;
    op.cls = cls;
    op.weight = weight;
    op.lines.reserve(pool.size());
    for (const TaskSet& tasks : pool) op.lines.push_back(encode(tasks));
    ops.push_back(std::move(op));
  };
  add_op(OpClass::kAdmit, config.mix.admit, [&](const TaskSet& tasks) {
    return make_admit_request(config.processors, tasks, config.algorithm,
                              config.bound, -1, config.deadline_ms);
  });
  add_op(OpClass::kAnalyze, config.mix.analyze, [&](const TaskSet& tasks) {
    return make_analyze_request(config.processors, tasks, config.algorithm,
                                config.bound, -1, config.deadline_ms);
  });
  add_op(OpClass::kRobustness, config.mix.robustness,
         [&](const TaskSet& tasks) {
    return make_robustness_request(config.processors, tasks, config.algorithm,
                                   config.bound, 0.0, 0, -1,
                                   config.deadline_ms);
  });
  add_op(OpClass::kSimulate, config.mix.simulate, [&](const TaskSet& tasks) {
    return make_simulate_request(config.processors, tasks, config.algorithm,
                                 config.bound, -1, config.deadline_ms);
  });
  add_op(OpClass::kStats, config.mix.stats,
         [&](const TaskSet&) { return make_stats_request(); });
  if (ops.empty() && !config.session) {
    throw InvalidConfigError("run_load: the op mix is empty");
  }
  double total_weight = 0.0;
  for (const OpRequests& op : ops) total_weight += op.weight;

  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  const bool open_loop = config.offered_qps > 0.0;
  RetryPolicy policy;
  policy.max_attempts = config.max_attempts;

  std::mutex merge_mutex;
  LoadReport merged;
  std::size_t connects_failed = 0;
  std::string connect_error;

  std::vector<std::thread> threads;
  threads.reserve(config.connections);
  for (std::size_t c = 0; c < config.connections; ++c) {
    threads.emplace_back([&, c] {
      LoadReport local;
      try {
        Client client(config.host, config.port, config.timeout_ms,
                      config.seed ^ (0xC11E57ULL + c));
        Rng pick = Rng(config.seed).fork(0x10000 + c);

        if (config.session) {
          run_session_churn(client, config, policy, churn_pool, deadline,
                            local, pick);
        } else if (open_loop) {
          // Sender/receiver pair over one connection: sends never wait
          // for replies, so offered load is independent of service rate.
          ArrivalProcess arrivals{
              config.offered_qps / static_cast<double>(config.connections),
              config, start, Rng(config.seed).fork(0x20000 + c)};
          OpenLoopChannel ch;
          LoadReport recv_report;
          std::thread receiver([&] {
            open_loop_receiver(client, config, policy, ops, ch, recv_report,
                               Rng(config.seed).fork(0x30000 + c));
          });
          open_loop_sender(client, arrivals, ops, total_weight, deadline, ch,
                           local, pick);
          receiver.join();
          local.merge(recv_report);
        } else {
          while (Clock::now() < deadline) {
            const Picked p = pick_request(pick, ops, total_weight);
            const std::string& line = ops[p.op_index].lines[p.line_index];
            const OpClass cls = ops[p.op_index].cls;

            const auto sent = Clock::now();
            std::string reply;
            if (config.retry) {
              RetryResult r = client.request_with_retry(line, policy);
              // Every non-final attempt was answered with a shed.
              local.requests +=
                  static_cast<std::uint64_t>(r.attempts > 1 ? r.attempts - 1
                                                            : 0);
              local.shed += static_cast<std::uint64_t>(
                  r.attempts > 1 ? r.attempts - 1 : 0);
              local.retries += static_cast<std::uint64_t>(r.attempts - 1);
              reply = std::move(r.reply);
            } else {
              reply = client.request(line);
            }
            const auto micros = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    Clock::now() - sent)
                    .count());

            ++local.offered;
            ++local.requests;
            classify(reply, cls, local);
            local.latency_us.record(micros);
            local.per_op_latency_us[static_cast<std::size_t>(cls)].record(
                micros);
          }
        }
      } catch (const TransportError& e) {
        ++local.transport_errors;
        const std::scoped_lock lock(merge_mutex);
        if (local.requests == 0 && local.offered == 0) {
          ++connects_failed;
          connect_error = e.what();
        }
      }
      local.elapsed_seconds =
          std::chrono::duration<double>(Clock::now() - start).count();
      const std::scoped_lock lock(merge_mutex);
      merged.merge(local);
    });
  }
  for (std::thread& t : threads) t.join();

  if (connects_failed == config.connections) {
    throw TransportError("run_load: no connection could be established (" +
                         connect_error + ")");
  }
  return merged;
}

}  // namespace rmts::server
