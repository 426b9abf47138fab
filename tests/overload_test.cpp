// Tests for the adaptive overload-control layer (src/server/overload.hpp):
// the pure AIMD controller against a synthetic latency source (convergence
// and invariants, no sockets), the request peek scanner, the shed/expired
// reply builders and the client retry parser -- plus live-server tests of
// budget adaptation under a pipelined burst, deadline-aware shedding, and
// a retrying client riding out saturation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "server/json.hpp"
#include "server/overload.hpp"
#include "server/protocol.hpp"
#include "server/server.hpp"
#include "tasks/task_set.hpp"

namespace rmts::server {
namespace {

// ---------------------------------------------------- controller (pure) --

std::array<ClassSample, kBudgetClassCount> idle_samples() { return {}; }

constexpr auto kAdmitIdx = static_cast<std::size_t>(BudgetClass::kAdmit);

TEST(OverloadController, ClampsHostileConfigInsteadOfThrowing) {
  OverloadConfig bad;
  bad.interval_ms = 0;
  bad.min_budget = 0;
  bad.max_budget = 0;
  bad.initial_budget = 10'000;
  bad.decrease = 7.5;
  bad.increase = 0;
  bad.max_retry_after_ms = -3;
  const OverloadController controller(bad);
  const OverloadConfig& c = controller.config();
  EXPECT_GE(c.interval_ms, 1);
  EXPECT_GE(c.min_budget, 1u);
  EXPECT_GE(c.max_budget, c.min_budget);
  EXPECT_GT(c.decrease, 0.0);
  EXPECT_LT(c.decrease, 1.0);
  EXPECT_GE(c.increase, 1u);
  EXPECT_GE(c.max_retry_after_ms, c.interval_ms);
  EXPECT_GE(controller.budget(BudgetClass::kAdmit), c.min_budget);
  EXPECT_LE(controller.budget(BudgetClass::kAdmit), c.max_budget);
}

TEST(OverloadController, IdleTickLeavesBudgetsAlone) {
  OverloadController controller(OverloadConfig{});
  const std::size_t before = controller.budget(BudgetClass::kAdmit);
  controller.tick(idle_samples());
  EXPECT_EQ(controller.budget(BudgetClass::kAdmit), before);
  EXPECT_EQ(controller.ticks(), 1u);
}

TEST(OverloadController, CompliantIdleClassDoesNotProbeUpward) {
  // p99 under the SLO but the budget was nowhere near binding: probing
  // upward would just store up a future burst.
  OverloadController controller(OverloadConfig{});
  const std::size_t before = controller.budget(BudgetClass::kAdmit);
  auto samples = idle_samples();
  samples[kAdmitIdx] = {/*completed=*/3, /*shed=*/0, /*in_flight=*/1,
                        /*p99_us=*/100.0};
  controller.tick(samples);
  EXPECT_EQ(controller.budget(BudgetClass::kAdmit), before);
}

TEST(OverloadController, AdditiveIncreaseWhenCompliantAndBinding) {
  OverloadConfig config;
  config.initial_budget = 4;
  config.increase = 1;
  OverloadController controller(config);
  auto samples = idle_samples();
  samples[kAdmitIdx] = {/*completed=*/10, /*shed=*/2, /*in_flight=*/0,
                        /*p99_us=*/100.0};  // well under the 20ms SLO
  controller.tick(samples);
  EXPECT_EQ(controller.budget(BudgetClass::kAdmit), 5u);
  // Saturating at max_budget.
  for (int i = 0; i < 1000; ++i) controller.tick(samples);
  EXPECT_EQ(controller.budget(BudgetClass::kAdmit), config.max_budget);
}

TEST(OverloadController, MultiplicativeDecreaseOnSloViolation) {
  OverloadConfig config;
  config.initial_budget = 100;
  config.decrease = 0.5;
  OverloadController controller(config);
  auto samples = idle_samples();
  samples[kAdmitIdx] = {/*completed=*/10, /*shed=*/0, /*in_flight=*/50,
                        /*p99_us=*/1e9};  // hopeless
  controller.tick(samples);
  EXPECT_EQ(controller.budget(BudgetClass::kAdmit), 50u);
  controller.tick(samples);
  EXPECT_EQ(controller.budget(BudgetClass::kAdmit), 25u);
  // Never below the floor, no matter how long the violation lasts.
  for (int i = 0; i < 100; ++i) controller.tick(samples);
  EXPECT_EQ(controller.budget(BudgetClass::kAdmit), config.min_budget);
}

TEST(OverloadController, StuckClassWithZeroCompletionsIsViolating) {
  OverloadConfig config;
  config.initial_budget = 32;
  OverloadController controller(config);
  auto samples = idle_samples();
  samples[kAdmitIdx] = {/*completed=*/0, /*shed=*/0, /*in_flight=*/5,
                        /*p99_us=*/0.0};
  controller.tick(samples);
  EXPECT_LT(controller.budget(BudgetClass::kAdmit), 32u);
}

TEST(OverloadController, StaticModeFreezesBudgetsButKeepsHints) {
  OverloadConfig config;
  config.adaptive = false;
  config.initial_budget = 16;
  OverloadController controller(config);
  auto samples = idle_samples();
  samples[kAdmitIdx] = {/*completed=*/2, /*shed=*/10, /*in_flight=*/40,
                        /*p99_us=*/1e9};
  for (int i = 0; i < 20; ++i) controller.tick(samples);
  EXPECT_EQ(controller.budget(BudgetClass::kAdmit), 16u);
  // The hint still tracks the backlog in static mode.
  EXPECT_GT(controller.retry_after_ms(BudgetClass::kAdmit),
            controller.config().interval_ms);
}

TEST(OverloadController, ConvergesAgainstSyntheticLatencySource) {
  // Synthetic server: p99 grows linearly with the admitted budget
  // (1 ms per slot), so the largest SLO-compliant budget is exactly
  // slo / 1ms = 24.  The AIMD loop must settle into a band around it:
  // decreases from above, additive probes from below.
  OverloadConfig config;
  config.slo_p99_us[kAdmitIdx] = 24'000;
  config.initial_budget = 256;
  config.max_budget = 256;
  config.decrease = 0.7;
  OverloadController controller(config);

  std::vector<std::size_t> history;
  std::size_t budget = config.initial_budget;
  for (int t = 0; t < 400; ++t) {
    auto samples = idle_samples();
    samples[kAdmitIdx] = {/*completed=*/budget, /*shed=*/1,
                          /*in_flight=*/budget,
                          /*p99_us=*/static_cast<double>(budget) * 1000.0};
    budget = controller.tick(samples)[kAdmitIdx];
    history.push_back(budget);
  }
  // The last 100 ticks oscillate inside the AIMD band around 24:
  // never over by more than one additive step, never under 0.7 * 24 - 1.
  const auto tail_begin = history.end() - 100;
  const std::size_t lo = *std::min_element(tail_begin, history.end());
  const std::size_t hi = *std::max_element(tail_begin, history.end());
  EXPECT_GE(lo, 15u) << "collapsed below the AIMD band";
  EXPECT_LE(hi, 25u) << "exceeded the largest compliant budget";
  // And it genuinely oscillates (probes up, backs off) rather than pinning.
  EXPECT_LT(lo, hi);
}

TEST(OverloadController, RetryHintFollowsLittlesLaw) {
  OverloadConfig config;
  config.interval_ms = 100;
  config.max_retry_after_ms = 5000;
  OverloadController controller(config);

  // 10 completions per 100ms interval, 20 in flight: the backlog drains in
  // ceil(21/10) = 3 intervals = 300 ms.
  auto samples = idle_samples();
  samples[kAdmitIdx] = {/*completed=*/10, /*shed=*/0, /*in_flight=*/20,
                        /*p99_us=*/100.0};
  controller.tick(samples);
  EXPECT_EQ(controller.retry_after_ms(BudgetClass::kAdmit), 300);

  // More backlog -> longer hint (monotone), capped at the ceiling.
  samples[kAdmitIdx].in_flight = 100;
  controller.tick(samples);
  EXPECT_EQ(controller.retry_after_ms(BudgetClass::kAdmit), 1100);
  samples[kAdmitIdx].in_flight = 100'000;
  controller.tick(samples);
  EXPECT_EQ(controller.retry_after_ms(BudgetClass::kAdmit), 5000);

  // Saturated (nothing completed, work stuck): full ceiling.
  samples[kAdmitIdx] = {/*completed=*/0, /*shed=*/3, /*in_flight=*/4,
                        /*p99_us=*/0.0};
  controller.tick(samples);
  EXPECT_EQ(controller.retry_after_ms(BudgetClass::kAdmit), 5000);

  // Idle: just the interval.
  controller.tick(idle_samples());
  EXPECT_EQ(controller.retry_after_ms(BudgetClass::kAdmit), 100);
}

// ------------------------------------------------------------- peeking --

TEST(PeekRequest, ClassifiesEveryBudgetedOp) {
  // Every op table row against an independent list: the row itself, the
  // peek's budget class and endpoint on the built request, the router's
  // endpoint and the op name its reply echoes.  The session ops name a
  // session that does not exist: their error replies still echo the op.
  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}});
  const std::vector<TaskSet> batch{tasks};
  const struct {
    std::string_view op;
    std::string line;
    Endpoint endpoint;
    std::optional<BudgetClass> cls;
  } cases[] = {
      {"admit", make_admit_request(2, tasks), Endpoint::kAdmit,
       BudgetClass::kAdmit},
      // Batched admission shares the admit budget.
      {"admit_batch", make_admit_batch_request(2, batch),
       Endpoint::kAdmitBatch, BudgetClass::kAdmit},
      {"analyze", make_analyze_request(2, tasks), Endpoint::kAnalyze,
       BudgetClass::kAnalyze},
      {"robustness", make_robustness_request(2, tasks), Endpoint::kRobustness,
       BudgetClass::kRobustness},
      {"simulate", make_simulate_request(2, tasks), Endpoint::kSimulate,
       BudgetClass::kSimulate},
      {"session_open", make_session_open_request(2), Endpoint::kSession,
       BudgetClass::kSession},
      {"session_admit", make_session_admit_request(9, 1, 4),
       Endpoint::kSession, BudgetClass::kSession},
      {"session_depart", make_session_depart_request(9, 1),
       Endpoint::kSession, BudgetClass::kSession},
      {"session_rebalance", make_session_rebalance_request(9),
       Endpoint::kSession, BudgetClass::kSession},
      {"session_stats", make_session_stats_request(9), Endpoint::kSession,
       BudgetClass::kSession},
      {"session_close", make_session_close_request(9), Endpoint::kSession,
       BudgetClass::kSession},
      {"stats", make_stats_request(), Endpoint::kStats, std::nullopt},
      {"metrics", make_metrics_request(), Endpoint::kMetrics, std::nullopt},
  };
  EXPECT_EQ(kOps.size(), std::size(cases));
  const Metrics metrics;
  const Router router(RouterConfig{}, metrics);
  for (const Op& row : kOps) {
    const auto* c = std::find_if(std::begin(cases), std::end(cases),
                                 [&](const auto& e) { return e.op == row.name; });
    ASSERT_NE(c, std::end(cases)) << row.name;
    EXPECT_EQ(row.endpoint, c->endpoint) << row.name;
    EXPECT_EQ(row.budget, c->cls) << row.name;
    EXPECT_EQ(find_op(row.name), &row) << row.name;

    const RequestPeek peek = peek_request(c->line);
    EXPECT_EQ(peek.budgeted, c->cls.has_value()) << c->line;
    if (c->cls) {
      EXPECT_EQ(peek.cls, *c->cls) << c->line;
    }
    EXPECT_EQ(peek.endpoint, c->endpoint) << c->line;
    EXPECT_EQ(peek.deadline_ms, 0) << c->line;

    const HandleOutcome out = router.handle(c->line);
    EXPECT_EQ(out.endpoint, c->endpoint) << c->line;
    JsonValue reply;
    std::string error;
    ASSERT_TRUE(json_parse(out.reply, reply, error)) << out.reply;
    ASSERT_NE(reply.find("op"), nullptr) << out.reply;
    EXPECT_EQ(reply.find("op")->as_string(), row.name) << out.reply;
  }
  // Whitespace around the key and colon is tolerated.
  const RequestPeek spaced = peek_request(R"({ "op" : "admit" })");
  EXPECT_TRUE(spaced.budgeted);
  EXPECT_EQ(spaced.cls, BudgetClass::kAdmit);
}

TEST(PeekRequest, ControlPlaneAndGarbageAreUnbudgeted) {
  for (const char* line :
       {R"({"op":"stats"})", R"({"op":"metrics"})", R"({"op":"frobnicate"})",
        R"({"op":"session_foo"})", "not json at all", "", R"({"id":7})",
        R"({"op":12})"}) {
    EXPECT_FALSE(peek_request(line).budgeted) << line;
  }
  // Unknown ops, session-prefixed or not, reach no endpoint and get the
  // router's "unknown op".
  const Metrics metrics;
  const Router router(RouterConfig{}, metrics);
  for (const std::string op : {"frobnicate", "session_foo"}) {
    const std::string line = R"({"op":")" + op + R"("})";
    EXPECT_EQ(peek_request(line).endpoint, Endpoint::kMalformed) << line;
    const HandleOutcome out = router.handle(line);
    EXPECT_EQ(out.endpoint, Endpoint::kMalformed) << line;
    EXPECT_TRUE(out.error) << line;
    EXPECT_EQ(out.reply, error_reply("unknown op '" + op + "'")) << line;
  }
}

TEST(PeekRequest, ExtractsDeadline) {
  EXPECT_EQ(peek_request(R"({"op":"admit","deadline_ms":250})").deadline_ms,
            250);
  EXPECT_EQ(peek_request(R"({"deadline_ms" : 42,"op":"analyze"})").deadline_ms,
            42);
  EXPECT_EQ(peek_request(R"({"op":"admit"})").deadline_ms, 0);
  // A bounded scan: absurd values cannot overflow into nonsense.
  const RequestPeek big =
      peek_request(R"({"op":"admit","deadline_ms":99999999999999999999})");
  EXPECT_GT(big.deadline_ms, 0);
  EXPECT_LT(big.deadline_ms, std::int64_t{1} << 41);
}

TEST(PeekRequest, KeysInsideValuesOrNestedObjectsNeverMatch) {
  // "deadline_ms" as a nested-object key must not arm the deadline drop:
  // a spurious match would make a worker discard a valid request as
  // deadline_expired, which the strict parse never gets to correct.
  EXPECT_EQ(
      peek_request(R"({"op":"admit","meta":{"deadline_ms":5}})").deadline_ms,
      0);
  // ...nor as a string VALUE, even one crafted to look like a key.
  EXPECT_EQ(peek_request(R"({"op":"admit","alg":"deadline_ms"})").deadline_ms,
            0);
  EXPECT_EQ(peek_request(R"({"note":"x \"deadline_ms\": 9","op":"admit"})")
                .deadline_ms,
            0);
  // "op" nested or quoted inside a value must not classify the line.
  EXPECT_FALSE(peek_request(R"({"meta":{"op":"admit"}})").budgeted);
  EXPECT_FALSE(peek_request(R"({"note":"\"op\":\"admit\""})").budgeted);
  // The real top-level keys still win with every decoy present at once.
  const RequestPeek peek = peek_request(
      R"({"note":"\"deadline_ms\": 7","meta":{"op":"simulate"},)"
      R"("op":"analyze","deadline_ms":31})");
  EXPECT_TRUE(peek.budgeted);
  EXPECT_EQ(peek.cls, BudgetClass::kAnalyze);
  EXPECT_EQ(peek.deadline_ms, 31);
}

TEST(PeekRequest, MatchesTheBuiltRequests) {
  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}});
  const RequestPeek peek =
      peek_request(make_simulate_request(2, tasks, {}, {}, 7, 1500));
  EXPECT_TRUE(peek.budgeted);
  EXPECT_EQ(peek.cls, BudgetClass::kSimulate);
  EXPECT_EQ(peek.deadline_ms, 1500);
}

// ------------------------------------------------------ reply builders --

TEST(OverloadReplies, RoundTripThroughParserAndClientHelper) {
  const std::string shed = overloaded_reply(250);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(shed, doc, error)) << error;
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("error")->as_string(), "overloaded");
  EXPECT_EQ(doc.find("retry_after_ms")->as_int(), 250);
  EXPECT_EQ(Client::parse_retry_after_ms(shed), 250);

  const std::string expired = deadline_expired_reply(37);
  ASSERT_TRUE(json_parse(expired, doc, error)) << error;
  EXPECT_EQ(doc.find("error")->as_string(), "deadline_expired");
  EXPECT_EQ(doc.find("waited_ms")->as_int(), 37);
  // Not an overload shed: the retry helper must not back off for it.
  EXPECT_EQ(Client::parse_retry_after_ms(expired), 0);
  EXPECT_EQ(Client::parse_retry_after_ms(R"({"ok":true})"), 0);
}

// ------------------------------------------------------- live server  --

/// Runs a Server on a background thread for one test.
class LiveServer {
 public:
  explicit LiveServer(ServerConfig config) : server_(std::move(config)) {
    thread_ = std::thread([this] { server_.run(); });
  }
  ~LiveServer() {
    server_.request_stop();
    thread_.join();
  }
  Server& operator*() noexcept { return server_; }
  Server* operator->() noexcept { return &server_; }

 private:
  Server server_;
  std::thread thread_;
};

JsonValue parse_ok(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(json_parse(text, value, error)) << text << " -- " << error;
  return value;
}

/// A deliberately slow request (~250 ms on one worker): coprime periods
/// give a long hyperperiod, so the robustness bisection simulates out to
/// the horizon cap at every probe.
std::string slow_request() {
  const auto tasks = TaskSet::from_pairs({{12, 97},
                                          {12, 101},
                                          {12, 103},
                                          {13, 107},
                                          {13, 109},
                                          {14, 113},
                                          {15, 127},
                                          {16, 131},
                                          {17, 137},
                                          {17, 139},
                                          {18, 149},
                                          {18, 151}});
  return make_robustness_request(4, tasks, {}, {}, 8.0);
}

TEST(OverloadLive, TightSloShrinksBudgetUnderSustainedLoad) {
  ServerConfig config;
  config.port = 0;
  config.workers = 1;
  config.overload.interval_ms = 10;
  config.overload.slo_p99_us[kAdmitIdx] = 1;  // unattainable on purpose
  LiveServer server(config);
  Client client("127.0.0.1", server->port());
  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}, {2, 10}});
  const std::string admit = make_admit_request(2, tasks);

  // Keep completions flowing across many 10ms monitoring intervals; every
  // interval that completes work violates the 1us SLO, so the budget must
  // walk down to the floor.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  while (std::chrono::steady_clock::now() < until) {
    const JsonValue reply = parse_ok(client.request(admit));
    EXPECT_TRUE(reply.find("ok")->as_bool());
  }

  const RuntimeStats stats = server->runtime_stats();
  EXPECT_TRUE(stats.adaptive);
  EXPECT_GT(stats.controller_ticks, 5u);
  EXPECT_LT(stats.classes[kAdmitIdx].budget, config.overload.initial_budget);
  EXPECT_GE(stats.classes[kAdmitIdx].budget, config.overload.min_budget);

  // With the budget at the floor, one pipelined wave overflows the class
  // budget and the overflow is shed with the controller's hint attached.
  constexpr int kBurst = 32;
  for (int i = 0; i < kBurst; ++i) client.send_line(admit);
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const JsonValue reply = parse_ok(client.read_reply());
    if (reply.find("ok")->as_bool()) {
      ++ok;
    } else {
      ASSERT_EQ(reply.find("error")->as_string(), "overloaded");
      EXPECT_GE(reply.find("retry_after_ms")->as_int(), 1);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GT(shed, 0);
  EXPECT_GT(server->runtime_stats().classes[kAdmitIdx].shed, 0u);
}

TEST(OverloadLive, AdmitBatchTrafficKeepsTheAdmitBudget) {
  // Regression: admit_batch holds admit budget, but the controller sampled
  // the admit class from the admit endpoint alone.  Pure batch traffic then
  // read as admitted work that never completes ("stuck") on every tick, so
  // the budget collapsed to the floor and valid traffic was shed.  Small
  // batches keep the p99 far under the default 20 ms admit SLO.
  ServerConfig config;
  config.port = 0;
  config.workers = 2;
  LiveServer server(config);
  const std::vector<TaskSet> batch{
      TaskSet::from_pairs({{1, 10}, {1, 20}, {2, 40}, {1, 50}}),
      TaskSet::from_pairs({{2, 10}, {1, 25}, {3, 50}, {2, 100}})};
  const std::string line = make_admit_batch_request(2, batch);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> connections;
  for (int c = 0; c < 4; ++c) {
    connections.emplace_back([&] {
      try {
        Client client("127.0.0.1", server->port());
        while (!stop.load(std::memory_order_relaxed)) {
          if (client.request(line).rfind(R"({"ok":true,)", 0) != 0) {
            failures.fetch_add(1);
          }
        }
      } catch (const TransportError&) {
        failures.fetch_add(1);
      }
    });
  }
  std::size_t lowest = config.overload.initial_budget;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1600);
  while (std::chrono::steady_clock::now() < until) {
    lowest = std::min(lowest, server->runtime_stats().classes[kAdmitIdx].budget);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (std::thread& t : connections) t.join();

  const RuntimeStats stats = server->runtime_stats();
  EXPECT_GE(stats.controller_ticks, 15u);
  EXPECT_EQ(stats.requests_shed, 0u);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(lowest, config.overload.initial_budget);
}

TEST(OverloadLive, HeldOrderedRepliesCountTowardBackpressure) {
  // Regression: shed replies claim sequence slots at decode time, so on a
  // connection whose earlier slow requests are still in the pool they park
  // in the reorder buffer (`held`) rather than the flushable write buffer.
  // The write-backpressure gate must count those parked bytes -- gating on
  // unsent() alone let a client pin one slow request and then stream lines,
  // growing held at network ingest rate without ever tripping the cap.
  ServerConfig config;
  config.port = 0;
  config.workers = 1;
  config.batch_size = 1;
  config.max_in_flight = 3;           // the three pinned requests fill it
  config.max_write_buffer = 8 << 10;  // small cap so the gate trips fast
  LiveServer server(config);
  Client client("127.0.0.1", server->port(), /*timeout_ms=*/250);

  // Pin the single worker and the backstop with slow requests on THIS
  // connection: their replies own sequence slots 0..2, so every shed
  // reply behind them is parked, not flushed.
  for (int i = 0; i < 3; ++i) client.send_line(slow_request());
  while (server->runtime_stats().in_flight < 3) std::this_thread::yield();

  // Stream sheddable lines without reading a single reply.
  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}});
  const std::string admit = make_admit_request(2, tasks);
  constexpr int kOffered = 6000;
  for (int i = 0; i < kOffered; ++i) {
    try {
      client.send_line(admit);
    } catch (const TransportError&) {
      break;  // socket buffers filled: backpressure reached the sender
    }
  }

  // The burst lands in socket buffers faster than the loop decodes it;
  // wait for the shed counter to plateau (reads stopped) before judging.
  std::uint64_t prev_shed = 0;
  for (int i = 0; i < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t now = server->runtime_stats().requests_shed;
    if (now > 0 && now == prev_shed) break;
    prev_shed = now;
  }

  const RuntimeStats stats = server->runtime_stats();
  // The pinned requests must still be holding the sequence gap open for
  // the bound below to be meaningful (the send phase takes well under one
  // slow-request compute time).
  ASSERT_GT(stats.in_flight, 0u) << "pinned slow requests finished early";
  EXPECT_GT(stats.requests_shed, 0u);
  // Reads must stop once ~max_write_buffer bytes are parked: the server
  // sheds far fewer lines than offered.  Without held accounting it keeps
  // decoding and sheds nearly all of them.
  EXPECT_LT(stats.requests_shed, kOffered / 2);
}

TEST(OverloadLive, QueuedRequestPastItsDeadlineIsDropped) {
  ServerConfig config;
  config.port = 0;
  config.workers = 1;  // one slow request blocks the pool
  config.batch_size = 1;
  LiveServer server(config);
  // Generous receive timeouts: the pinned request runs ~250 ms natively
  // but several seconds under a sanitizer on a small machine, and the
  // queued reply only arrives once it finishes.
  Client saturator("127.0.0.1", server->port(), /*timeout_ms=*/30'000);
  Client client("127.0.0.1", server->port(), /*timeout_ms=*/30'000);

  saturator.send_line(slow_request());
  while (server->runtime_stats().batches_dispatched == 0) {
    std::this_thread::yield();
  }

  // Queued behind the slow request with a 1ms deadline: by the time the
  // worker frees up, the deadline has long passed and the server must
  // answer deadline_expired instead of running it.
  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}});
  const JsonValue reply =
      parse_ok(client.request(make_admit_request(2, tasks, {}, {}, -1, 1)));
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("error")->as_string(), "deadline_expired");
  EXPECT_GE(reply.find("waited_ms")->as_int(), 1);

  const RuntimeStats stats = server->runtime_stats();
  EXPECT_EQ(stats.requests_expired, 1u);
  EXPECT_EQ(stats.classes[kAdmitIdx].expired, 1u);

  // The saturator's request still completes normally.
  EXPECT_TRUE(parse_ok(saturator.read_reply()).find("ok")->as_bool());
}

TEST(OverloadLive, RetryingClientRidesOutSaturation) {
  ServerConfig config;
  config.port = 0;
  config.workers = 1;
  config.batch_size = 1;
  config.max_in_flight = 1;  // backstop: anything behind the slow one sheds
  config.overload.interval_ms = 10;
  LiveServer server(config);
  Client saturator("127.0.0.1", server->port(), /*timeout_ms=*/30'000);
  Client client("127.0.0.1", server->port(), 30'000, /*seed=*/7);

  saturator.send_line(slow_request());
  while (server->runtime_stats().batches_dispatched == 0) {
    std::this_thread::yield();
  }

  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}});
  RetryPolicy policy;
  policy.max_attempts = 200;  // bounded by the slow request, not the policy
  policy.base_backoff_ms = 2;
  const RetryResult result =
      client.request_with_retry(make_admit_request(2, tasks), policy);

  // The first attempt hit the saturated server and was shed; the retries
  // (honoring retry_after_ms) eventually landed after the drain.
  EXPECT_GT(result.attempts, 1);
  EXPECT_FALSE(result.exhausted());
  EXPECT_GT(result.backoff_total_ms, 0);
  const JsonValue reply = parse_ok(result.reply);
  EXPECT_TRUE(reply.find("ok")->as_bool());
  EXPECT_GT(server->runtime_stats().requests_shed, 0u);

  EXPECT_TRUE(parse_ok(saturator.read_reply()).find("ok")->as_bool());
}

TEST(OverloadLive, StatsExposesBudgetsAndMetricsExportsThem) {
  ServerConfig config;
  config.port = 0;
  config.workers = 1;
  LiveServer server(config);
  Client client("127.0.0.1", server->port());

  const JsonValue stats = parse_ok(client.request(make_stats_request()));
  ASSERT_TRUE(stats.find("ok")->as_bool());
  const JsonValue* overload = stats.find("overload");
  ASSERT_NE(overload, nullptr);
  EXPECT_TRUE(overload->find("adaptive")->as_bool());
  const JsonValue* classes = overload->find("classes");
  ASSERT_NE(classes, nullptr);
  for (const char* name : {"admit", "analyze", "robustness", "simulate"}) {
    const JsonValue* cls = classes->find(name);
    ASSERT_NE(cls, nullptr) << name;
    EXPECT_EQ(cls->find("budget")->as_int(),
              static_cast<std::int64_t>(config.overload.initial_budget));
    ASSERT_NE(cls->find("shed"), nullptr);
    ASSERT_NE(cls->find("expired"), nullptr);
    ASSERT_NE(cls->find("retry_after_ms"), nullptr);
  }

  const JsonValue metrics = parse_ok(client.request(make_metrics_request()));
  ASSERT_TRUE(metrics.find("ok")->as_bool());
  const std::string_view text = metrics.find("text")->as_string();
  for (const char* needle :
       {"rmts_class_budget{class=\"admit\"}", "rmts_class_shed_total",
        "rmts_class_expired_total", "rmts_requests_expired_total",
        "rmts_overload_adaptive", "rmts_class_retry_after_ms"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

}  // namespace
}  // namespace rmts::server
