// Tests for the admission-control service stack (src/server/): JSON codec,
// line framing, request routing, the in-process epoll server (every
// endpoint, load shedding, graceful mid-request shutdown), and a
// fork/exec smoke of the real rmts_serve binary (RMTS_SERVE_BIN).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bounds/harmonic.hpp"
#include "partition/rmts.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/router.hpp"
#include "server/server.hpp"
#include "sim/simulator.hpp"
#include "tasks/task_set.hpp"

namespace rmts::server {
namespace {

// ---------------------------------------------------------------- JSON --

JsonValue parse_ok(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(json_parse(text, value, error)) << text << " -- " << error;
  return value;
}

TEST(JsonParser, ParsesScalarsAndContainers) {
  const JsonValue doc = parse_ok(
      R"({"a":1,"b":-2.5,"c":"x","d":true,"e":null,"f":[1,2],"g":{"h":3}})");
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("a"), nullptr);
  EXPECT_TRUE(doc.find("a")->is_int());
  EXPECT_EQ(doc.find("a")->as_int(), 1);
  EXPECT_TRUE(doc.find("b")->is_number());
  EXPECT_FALSE(doc.find("b")->is_int());
  EXPECT_DOUBLE_EQ(doc.find("b")->as_double(), -2.5);
  EXPECT_EQ(doc.find("c")->as_string(), "x");
  EXPECT_TRUE(doc.find("d")->as_bool());
  EXPECT_TRUE(doc.find("e")->is_null());
  ASSERT_TRUE(doc.find("f")->is_array());
  EXPECT_EQ(doc.find("f")->items().size(), 2u);
  ASSERT_TRUE(doc.find("g")->is_object());
  EXPECT_EQ(doc.find("g")->find("h")->as_int(), 3);
}

TEST(JsonParser, DecodesEscapesAndSurrogatePairs) {
  const JsonValue doc = parse_ok(R"({"s":"a\n\t\"\\\u0041\ud83d\ude00"})");
  EXPECT_EQ(doc.find("s")->as_string(), "a\n\t\"\\A\xf0\x9f\x98\x80");
}

TEST(JsonParser, RejectsMalformedDocuments) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(json_parse("", value, error));
  EXPECT_FALSE(json_parse("{", value, error));
  EXPECT_FALSE(json_parse("{}extra", value, error));
  EXPECT_FALSE(json_parse("{\"a\":01}", value, error));
  EXPECT_FALSE(json_parse("[1,]", value, error));
  EXPECT_FALSE(json_parse("\"\\q\"", value, error));
  EXPECT_FALSE(json_parse("nul", value, error));
}

TEST(JsonParser, CapsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += '[';
  for (int i = 0; i < 100; ++i) deep += ']';
  JsonValue value;
  std::string error;
  EXPECT_FALSE(json_parse(deep, value, error));
  EXPECT_NE(error.find("deep"), std::string::npos) << error;
}

TEST(JsonParser, IntDetectionIsLossless) {
  const JsonValue doc =
      parse_ok(R"({"i":9223372036854775807,"f":1.0,"e":1e3})");
  EXPECT_TRUE(doc.find("i")->is_int());
  EXPECT_EQ(doc.find("i")->as_int(), 9223372036854775807LL);
  EXPECT_FALSE(doc.find("f")->is_int());  // fraction present
  EXPECT_FALSE(doc.find("e")->is_int());  // exponent present
}

TEST(JsonWriter, RendersDocumentsWithEscaping) {
  JsonWriter w;
  w.begin_object();
  w.key("text");
  w.value(std::string_view("a\"b\nc"));
  w.key("n");
  w.value(std::int64_t{-5});
  w.key("list");
  w.begin_array();
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"text":"a\"b\nc","n":-5,"list":[true,null]})");
}

TEST(JsonWriter, NonFiniteNumbersRenderAsNull) {
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  // Round-trip: what the writer emits, the parser reads back exactly.
  const JsonValue doc = parse_ok("{\"x\":" + json_number(0.1) + "}");
  EXPECT_DOUBLE_EQ(doc.find("x")->as_double(), 0.1);
}

// ------------------------------------------------------------- framing --

TEST(LineDecoder, ReassemblesFragmentedLines) {
  LineDecoder decoder;
  decoder.feed("hel");
  LineDecoder::Line line;
  EXPECT_FALSE(decoder.next(line));
  decoder.feed("lo\nwor");
  ASSERT_TRUE(decoder.next(line));
  EXPECT_EQ(line.text, "hello");
  EXPECT_FALSE(line.oversized);
  EXPECT_FALSE(decoder.next(line));
  decoder.feed("ld\r\n");
  ASSERT_TRUE(decoder.next(line));
  EXPECT_EQ(line.text, "world");  // CRLF tolerated
  EXPECT_EQ(decoder.lines_decoded(), 2u);
}

TEST(LineDecoder, ReportsOversizedOnceAndBoundsMemory) {
  LineDecoder decoder(8);
  decoder.feed(std::string(100, 'x'));  // far over the cap, no newline yet
  LineDecoder::Line line;
  ASSERT_TRUE(decoder.next(line));
  EXPECT_TRUE(line.oversized);
  EXPECT_FALSE(decoder.next(line));  // reported once, not per chunk
  decoder.feed(std::string(100, 'y'));
  EXPECT_LE(decoder.buffered(), 8u);
  EXPECT_FALSE(decoder.next(line));
  decoder.feed("\nok\n");  // newline ends the discarded line
  ASSERT_TRUE(decoder.next(line));
  EXPECT_EQ(line.text, "ok");
  EXPECT_FALSE(line.oversized);
}

// -------------------------------------------------------------- router --

class RouterTest : public ::testing::Test {
 protected:
  Metrics metrics_;
  Router router_{RouterConfig{}, metrics_};

  JsonValue handle(const std::string& line) {
    const HandleOutcome outcome = router_.handle(line);
    return parse_ok(outcome.reply);
  }
};

TEST_F(RouterTest, AdmitAgreesWithDirectLibraryCall) {
  const auto tasks =
      TaskSet::from_pairs({{1, 4}, {1, 5}, {2, 10}, {3, 20}});
  const JsonValue reply = handle(make_admit_request(2, tasks));
  ASSERT_NE(reply.find("ok"), nullptr);
  EXPECT_TRUE(reply.find("ok")->as_bool());

  const Rmts rmts(std::make_shared<HarmonicChainBound>());
  const Assignment direct = rmts.partition(tasks, 2);
  EXPECT_EQ(reply.find("accepted")->as_bool(), direct.success);
  EXPECT_EQ(reply.find("op")->as_string(), "admit");
}

TEST_F(RouterTest, AdmitBatchMatchesPerItemAdmitReplies) {
  const std::vector<TaskSet> batch = {
      TaskSet::from_pairs({{1, 4}, {1, 5}, {2, 10}, {3, 20}}),
      TaskSet::from_pairs({{3, 4}, {4, 5}, {9, 10}}),  // overloaded
      TaskSet::from_pairs({{1, 10}, {1, 20}}),
  };
  const JsonValue reply = handle(make_admit_batch_request(2, batch));
  ASSERT_TRUE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("op")->as_string(), "admit_batch");
  const JsonValue* items = reply.find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->items().size(), batch.size());

  std::int64_t accepted = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const JsonValue& item = items->items()[i];
    ASSERT_TRUE(item.find("ok")->as_bool()) << "item " << i;
    const JsonValue single = handle(make_admit_request(2, batch[i]));
    EXPECT_EQ(item.find("accepted")->as_bool(),
              single.find("accepted")->as_bool())
        << "item " << i;
    EXPECT_EQ(item.find("algorithm")->as_string(),
              single.find("algorithm")->as_string());
    if (item.find("accepted")->as_bool()) ++accepted;
  }
  EXPECT_EQ(reply.find("accepted_count")->as_int(), accepted);
}

TEST_F(RouterTest, AdmitBatchIsolatesBadItemsAndHonorsOverrides) {
  // Item 2 is malformed (wcet 0); its siblings must still be served.  The
  // third item overrides the top-level m.
  const JsonValue reply = handle(
      R"({"op":"admit_batch","m":2,"items":[)"
      R"({"tasks":[[1,4],[1,5]]},)"
      R"({"tasks":[[0,5]]},)"
      R"({"tasks":[[1,4],[1,5]],"m":1}]})");
  ASSERT_TRUE(reply.find("ok")->as_bool());
  const JsonValue* items = reply.find("items");
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->items().size(), 3u);
  EXPECT_TRUE(items->items()[0].find("ok")->as_bool());
  EXPECT_FALSE(items->items()[1].find("ok")->as_bool());
  EXPECT_FALSE(items->items()[1].find("error")->as_string().empty());
  EXPECT_TRUE(items->items()[2].find("ok")->as_bool());
}

TEST_F(RouterTest, AdmitBatchEnforcesItemLimitAndRequiresItems) {
  RouterConfig small;
  small.max_batch_items = 2;
  const Router router(small, metrics_);
  const std::vector<TaskSet> batch(3, TaskSet::from_pairs({{1, 4}}));
  const HandleOutcome over =
      router.handle(make_admit_batch_request(1, batch));
  const JsonValue over_reply = parse_ok(over.reply);
  EXPECT_FALSE(over_reply.find("ok")->as_bool());
  EXPECT_NE(over_reply.find("error")->as_string().find("items"),
            std::string::npos);

  for (const char* line :
       {R"({"op":"admit_batch","m":2})",               // missing items
        R"({"op":"admit_batch","m":2,"items":[]})",    // empty items
        R"({"op":"admit_batch","m":2,"items":7})"}) {  // not an array
    const JsonValue reply = parse_ok(router_.handle(line).reply);
    EXPECT_FALSE(reply.find("ok")->as_bool()) << line;
  }
  // An item without its own m and no top-level default is a per-item
  // error, not a request-level one.
  const JsonValue no_m = parse_ok(
      router_.handle(R"({"op":"admit_batch","items":[{"tasks":[[1,4]]}]})")
          .reply);
  ASSERT_TRUE(no_m.find("ok")->as_bool());
  EXPECT_FALSE(no_m.find("items")->items()[0].find("ok")->as_bool());
}

TEST_F(RouterTest, SimulateMatchesDirectSimulation) {
  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}});
  const JsonValue reply = handle(make_simulate_request(2, tasks));
  ASSERT_TRUE(reply.find("ok")->as_bool());
  ASSERT_TRUE(reply.find("accepted")->as_bool());

  const Rmts rmts(std::make_shared<HarmonicChainBound>());
  const Assignment assignment = rmts.partition(tasks, 2);
  SimConfig sim;
  sim.horizon = recommended_horizon(tasks, RouterConfig{}.sim_horizon_cap);
  sim.stop_at_first_miss = false;
  const SimResult direct = simulate(tasks, assignment, sim);
  EXPECT_EQ(reply.find("schedulable")->as_bool(), direct.schedulable);
  EXPECT_EQ(reply.find("events")->as_int(),
            static_cast<std::int64_t>(direct.events));
  EXPECT_EQ(reply.find("jobs_released")->as_int(),
            static_cast<std::int64_t>(direct.jobs_released));
}

TEST_F(RouterTest, MalformedRequestsGetStructuredErrors) {
  const char* bad[] = {
      "not json",
      "[1,2,3]",                                   // not an object
      R"({"id":7})",                               // missing op
      R"({"op":"frobnicate"})",                    // unknown op
      R"({"op":"admit"})",                         // missing m/tasks
      R"({"op":"admit","m":0,"tasks":[[1,2]]})",   // m out of range
      R"({"op":"admit","m":2,"tasks":[[0,5]]})",   // wcet out of range
      R"({"op":"admit","m":2,"tasks":[[1,2]],"alg":"nope"})",
      R"({"op":"admit","m":2,"tasks":[[1,2]],"bound":"nope"})",
  };
  for (const char* line : bad) {
    const HandleOutcome outcome = router_.handle(line);
    const JsonValue reply = parse_ok(outcome.reply);
    EXPECT_FALSE(reply.find("ok")->as_bool()) << line;
    EXPECT_TRUE(outcome.error) << line;
    ASSERT_NE(reply.find("error"), nullptr) << line;
    EXPECT_FALSE(reply.find("error")->as_string().empty()) << line;
  }
}

TEST_F(RouterTest, ErrorsEchoOpAndScalarId) {
  const JsonValue reply = handle(R"({"op":"admit","id":42})");
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("op")->as_string(), "admit");
  ASSERT_NE(reply.find("id"), nullptr);
  EXPECT_EQ(reply.find("id")->as_int(), 42);
}

TEST_F(RouterTest, EnforcesTaskCountLimit) {
  RouterConfig small;
  small.max_tasks = 2;
  const Router router(small, metrics_);
  const auto tasks = TaskSet::from_pairs({{1, 10}, {1, 20}, {1, 30}});
  const HandleOutcome outcome = router.handle(make_admit_request(2, tasks));
  const JsonValue reply = parse_ok(outcome.reply);
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_NE(reply.find("error")->as_string().find("tasks"),
            std::string::npos);
}

TEST_F(RouterTest, RobustnessReportsMargins) {
  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}});
  const JsonValue reply = handle(make_robustness_request(2, tasks));
  ASSERT_TRUE(reply.find("ok")->as_bool());
  ASSERT_TRUE(reply.find("accepted")->as_bool());
  EXPECT_GE(reply.find("simulated_overrun_margin")->as_double(), 1.0);
}

TEST_F(RouterTest, StatsWorksWithoutRuntimeCallback) {
  const JsonValue reply = handle(make_stats_request());
  ASSERT_TRUE(reply.find("ok")->as_bool());
  ASSERT_NE(reply.find("endpoints"), nullptr);
  EXPECT_TRUE(reply.find("endpoints")->is_object());
}

// -------------------------------------------------- in-process server --

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

ServerConfig test_config() {
  ServerConfig config;
  config.port = 0;  // ephemeral
  config.workers = 2;
  config.drain_timeout_ms = 2000;
  return config;
}

TEST(ServerTest, ServesEveryEndpointOverTcp) {
  LiveServer server(test_config());
  Client client("127.0.0.1", server->port());
  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}, {2, 10}});

  for (const std::string& request :
       {make_admit_request(2, tasks, "rmts", "hc", 1),
        make_admit_request(2, tasks, "spa2", {}, 2),
        make_admit_request(2, tasks, "edf-ts", {}, 3),
        make_admit_batch_request(2, std::vector<TaskSet>{tasks, tasks}),
        make_analyze_request(2, tasks), make_robustness_request(2, tasks),
        make_simulate_request(2, tasks), make_stats_request(),
        make_metrics_request()}) {
    const JsonValue reply = parse_ok(client.request(request));
    ASSERT_NE(reply.find("ok"), nullptr) << request;
    EXPECT_TRUE(reply.find("ok")->as_bool()) << request;
  }

  // The metrics the stats endpoint reads are visible in-process too.
  EXPECT_EQ(server->metrics().total_requests(), 9u);
  EXPECT_EQ(server->runtime_stats().connections_accepted, 1u);
}

TEST(ServerTest, PipelinedRequestsComeBackInOrder) {
  LiveServer server(test_config());
  Client client("127.0.0.1", server->port());
  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}});

  constexpr int kRequests = 50;
  for (int i = 0; i < kRequests; ++i) {
    client.send_line(make_admit_request(2, tasks, {}, {}, i));
  }
  for (int i = 0; i < kRequests; ++i) {
    const JsonValue reply = parse_ok(client.read_reply());
    EXPECT_TRUE(reply.find("ok")->as_bool());
    ASSERT_NE(reply.find("id"), nullptr);
    EXPECT_EQ(reply.find("id")->as_int(), i);  // protocol answers in order
  }
}

TEST(ServerTest, MalformedAndOversizedLinesGetErrors) {
  ServerConfig config = test_config();
  config.max_line = 256;
  LiveServer server(std::move(config));
  Client client("127.0.0.1", server->port());

  JsonValue reply = parse_ok(client.request("this is not json"));
  EXPECT_FALSE(reply.find("ok")->as_bool());

  reply = parse_ok(client.request(std::string(1000, 'x')));
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_NE(reply.find("error")->as_string().find("too long"),
            std::string::npos);

  // The connection survives both and keeps serving.
  reply = parse_ok(client.request(make_stats_request()));
  EXPECT_TRUE(reply.find("ok")->as_bool());
}

TEST(ServerTest, ShedsExplicitlyWhenOverloaded) {
  ServerConfig config = test_config();
  config.workers = 1;
  config.max_in_flight = 2;
  config.batch_size = 1;
  LiveServer server(std::move(config));
  Client client("127.0.0.1", server->port());
  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}});

  // One write burst decodes as one epoll wave; beyond max_in_flight the
  // server must answer {"ok":false,"error":"overloaded"} immediately
  // rather than queue without bound.
  constexpr int kBurst = 64;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += make_admit_request(2, tasks, {}, {}, i);
    burst += '\n';
  }
  client.send_line(burst.substr(0, burst.size() - 1));  // send_line adds \n

  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const JsonValue reply = parse_ok(client.read_reply());
    if (reply.find("ok")->as_bool()) {
      ++ok;
    } else {
      ASSERT_NE(reply.find("error"), nullptr);
      EXPECT_EQ(reply.find("error")->as_string(), "overloaded");
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kBurst);
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0);
  EXPECT_EQ(server->runtime_stats().requests_shed,
            static_cast<std::uint64_t>(shed));
}

TEST(ServerTest, GracefulStopAnswersInFlightRequestThenCloses) {
  LiveServer server(test_config());
  Client client("127.0.0.1", server->port());
  const auto tasks = TaskSet::from_pairs({{2, 9}, {3, 12}, {5, 18}});

  // Robustness is the slowest endpoint (bisection over simulations).
  // Wait until the request is genuinely in flight -- a stop issued before
  // the server has even read the line would (correctly) drop it, since
  // the drain stops reading -- then stop mid-request.
  client.send_line(make_robustness_request(2, tasks));
  while (server->runtime_stats().batches_dispatched == 0) {
    std::this_thread::yield();
  }
  server->request_stop();

  const JsonValue reply = parse_ok(client.read_reply());
  EXPECT_TRUE(reply.find("ok")->as_bool());  // drained, not dropped

  // After the drain the server closes the connection.
  EXPECT_THROW(client.read_reply(), TransportError);
}

TEST(ServerTest, DrainFlushesPendingShedRepliesWhileSaturated) {
  // Regression: a SIGTERM arriving while the server is saturated and busy
  // shedding must not drop the already-enqueued `overloaded` replies --
  // the drain waits for every write buffer to flush, so each decoded
  // request gets its answer before the connection closes.
  ServerConfig config = test_config();
  config.workers = 1;
  config.batch_size = 1;
  config.max_in_flight = 1;
  // The pinned request below runs ~250 ms natively but several seconds
  // under TSan on a loaded single-core box; the drain must outlast it or
  // the deadline force-closes the sockets this test asserts are flushed.
  config.drain_timeout_ms = 30'000;
  LiveServer server(std::move(config));
  Client saturator("127.0.0.1", server->port(), /*timeout_ms=*/30'000);
  Client client("127.0.0.1", server->port(), /*timeout_ms=*/30'000);

  // Pin the single worker on a slow request (~250 ms: coprime periods
  // push the robustness bisection to the simulation horizon cap) so the
  // backstop stays full while the burst arrives.
  const auto heavy = TaskSet::from_pairs({{12, 97},
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
  saturator.send_line(make_robustness_request(4, heavy, {}, {}, 8.0));
  while (server->runtime_stats().batches_dispatched == 0) {
    std::this_thread::yield();
  }

  // One pipelined wave: with max_in_flight == 1 every request sheds, and
  // every shed reply lands in the connection's write buffer.
  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}});
  constexpr int kBurst = 16;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += make_admit_request(2, tasks, {}, {}, i);
    burst += '\n';
  }
  client.send_line(burst.substr(0, burst.size() - 1));
  // Bounded wait for the wave to be decoded and answered; generous
  // because a sanitized worker starves the event loop on small machines.
  // Requests still undecoded at request_stop() are silently dropped, so
  // proceeding early would void the flushed-reply count below.
  const auto decode_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (server->runtime_stats().requests_shed <
             static_cast<std::uint64_t>(kBurst) &&
         std::chrono::steady_clock::now() < decode_deadline) {
    std::this_thread::yield();
  }
  ASSERT_GE(server->runtime_stats().requests_shed,
            static_cast<std::uint64_t>(kBurst))
      << "burst not fully decoded before stop";

  server->request_stop();

  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    const JsonValue reply = parse_ok(client.read_reply());
    if (!reply.find("ok")->as_bool()) {
      EXPECT_EQ(reply.find("error")->as_string(), "overloaded");
      EXPECT_GE(reply.find("retry_after_ms")->as_int(), 1);
      ++shed;
    }
  }
  EXPECT_GT(shed, 0);  // the burst genuinely overlapped the saturation

  // The in-flight slow request drains to completion too, then EOF.
  EXPECT_TRUE(parse_ok(saturator.read_reply()).find("ok")->as_bool());
  EXPECT_THROW(client.read_reply(), TransportError);
  EXPECT_THROW(saturator.read_reply(), TransportError);
}

TEST(ServerTest, StopIsIdempotentAndRunReturns) {
  ServerConfig config = test_config();
  Server server(std::move(config));
  server.request_stop();
  server.request_stop();
  server.run();  // a pre-stopped server drains immediately
  SUCCEED();
}

/// CPU time this process has used so far, all threads, in seconds.
double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// At the descriptor limit accept4 fails with EMFILE and the connection
// stays queued, so the level-triggered listen fd keeps reporting readable.
// The event loop must idle rather than spin on it, and must accept the
// queued peer once a descriptor frees up.
TEST(ServerTest, DescriptorExhaustionNeitherSpinsNorLosesThePeer) {
  LiveServer server(test_config());
  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  // `spare` is the descriptor freed later; `slot` (the lowest free one)
  // is left for the client's socket, and the limit admits nothing above.
  const int spare = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  const int slot = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(spare, 0);
  ASSERT_GE(slot, 0);
  ::close(slot);
  rlimit lowered = original;
  lowered.rlim_cur = static_cast<rlim_t>(slot) + 1;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  struct Restore {
    rlimit limit;
    ~Restore() { ::setrlimit(RLIMIT_NOFILE, &limit); }
  } restore{original};

  Client client("127.0.0.1", server->port());  // queued, not yet accepted
  const auto wall_start = std::chrono::steady_clock::now();
  const double cpu_start = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  const double cpu = process_cpu_seconds() - cpu_start;
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  EXPECT_LT(cpu, 0.25 * wall) << "event loop spun at the descriptor limit";
  EXPECT_EQ(server->runtime_stats().connections_accepted, 0u);

  ::close(spare);
  const JsonValue reply = parse_ok(client.request(make_stats_request()));
  EXPECT_TRUE(reply.find("ok")->as_bool());
  EXPECT_EQ(server->runtime_stats().connections_accepted, 1u);
}

// ------------------------------------------------ rmts_serve fork/exec --

TEST(ServeBinaryTest, StartsServesAndExitsZeroOnSigterm) {
  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    ::execl(RMTS_SERVE_BIN, "rmts_serve", "--port", "0", "--workers", "1",
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  ::close(out_pipe[1]);

  // Parse "rmts_serve listening on 127.0.0.1:PORT".
  std::string banner;
  char ch;
  while (::read(out_pipe[0], &ch, 1) == 1 && ch != '\n') banner += ch;
  const std::size_t colon = banner.rfind(':');
  ASSERT_NE(colon, std::string::npos) << banner;
  const auto port =
      static_cast<std::uint16_t>(std::stoul(banner.substr(colon + 1)));
  ASSERT_GT(port, 0);

  {
    Client client("127.0.0.1", port);
    const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}});
    const JsonValue reply = parse_ok(client.request(make_admit_request(2, tasks)));
    EXPECT_TRUE(reply.find("ok")->as_bool());
  }

  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ::close(out_pipe[0]);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

}  // namespace
}  // namespace rmts::server
