// Tests for the cross-layer observability surface: per-endpoint Metrics
// on the shared HDR histogram (interpolated quantiles, exact concurrent
// max), the stage tracer's aggregation, the Prometheus-style exposition
// (JSON `metrics` op and raw `GET /metrics` scrape), and their behaviour
// under concurrent load against a live server.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/trace.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/metrics.hpp"
#include "server/router.hpp"
#include "server/server.hpp"
#include "tasks/task_set.hpp"

namespace rmts::server {
namespace {

JsonValue parse_ok(const std::string& text) {
  JsonValue value;
  std::string error;
  EXPECT_TRUE(json_parse(text, value, error)) << text << " -- " << error;
  return value;
}

// ------------------------------------------------------------- Metrics --

TEST(Metrics, ReportsInterpolatedQuantilesNotBucketEdges) {
  Metrics metrics;
  for (std::uint64_t us = 1; us <= 1000; ++us) {
    metrics.record(Endpoint::kAdmit, false, us);
  }
  const Metrics::EndpointSnapshot snap = metrics.snapshot(Endpoint::kAdmit);
  EXPECT_EQ(snap.requests, 1000u);
  EXPECT_EQ(snap.max_micros, 1000u);
  // True p50 of 1..1000 is 500; the old power-of-two buckets reported the
  // bucket edge 511.  The HDR interpolation must land within 5%.
  EXPECT_NEAR(snap.p50_micros, 500.0, 25.0);
  EXPECT_NEAR(snap.p90_micros, 900.0, 45.0);
  EXPECT_NEAR(snap.p99_micros, 990.0, 50.0);
  EXPECT_NEAR(snap.mean_micros, 500.5, 0.5);
}

TEST(Metrics, ConcurrentRecordingKeepsExactMaxAndCounts) {
  // Regression: a relaxed max store can lose the true maximum when a
  // larger value is overwritten by a concurrent smaller one; the CAS loop
  // in AtomicHistogram must keep it exact.
  Metrics metrics;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&metrics, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Mostly small latencies with one contended spike per thread.
        const std::uint64_t us =
            i == kPerThread / 2 ? 1'000'000 + t : (i % 97) + 1;
        metrics.record(Endpoint::kSimulate, false, us);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const Metrics::EndpointSnapshot snap = metrics.snapshot(Endpoint::kSimulate);
  EXPECT_EQ(snap.requests, kThreads * kPerThread);
  EXPECT_EQ(snap.max_micros, 1'000'000u + kThreads - 1);
  EXPECT_EQ(snap.latency_us.count(), kThreads * kPerThread);
}

// -------------------------------------------------------------- tracer --

TEST(Trace, SpansAggregateIntoSnapshot) {
  if (!trace::compiled_in()) GTEST_SKIP() << "tracing compiled out";
  trace::set_enabled(true);
  const trace::Snapshot before = trace::snapshot();
  constexpr int kSpans = 100;
  for (int i = 0; i < kSpans; ++i) {
    const trace::Span span(trace::Stage::kPartitionDedicate);
  }
  trace::count(trace::Counter::kPartitionRuns, 7u);
  const trace::Snapshot after = trace::snapshot();

  const trace::StageSnapshot& b = before.stage(trace::Stage::kPartitionDedicate);
  const trace::StageSnapshot& a = after.stage(trace::Stage::kPartitionDedicate);
  EXPECT_EQ(a.count - b.count, static_cast<std::uint64_t>(kSpans));
  EXPECT_GE(a.total_ns, b.total_ns);
  EXPECT_EQ(after.counter(trace::Counter::kPartitionRuns) -
                before.counter(trace::Counter::kPartitionRuns),
            7u);
  EXPECT_GE(after.threads, 1u);
}

TEST(Trace, RuntimeKillSwitchSuppressesRecording) {
  if (!trace::compiled_in()) GTEST_SKIP() << "tracing compiled out";
  trace::set_enabled(false);
  const trace::Snapshot before = trace::snapshot();
  {
    const trace::Span span(trace::Stage::kSimRun);
  }
  trace::count(trace::Counter::kSimRuns);
  const trace::Snapshot after = trace::snapshot();
  trace::set_enabled(true);
  EXPECT_EQ(after.stage(trace::Stage::kSimRun).count,
            before.stage(trace::Stage::kSimRun).count);
  EXPECT_EQ(after.counter(trace::Counter::kSimRuns),
            before.counter(trace::Counter::kSimRuns));
}

// ---------------------------------------------------------- exposition --

/// Checks Prometheus text-format well-formedness: every non-comment line
/// is `name value` or `name{labels} value` with a parseable value.
void expect_valid_exposition(const std::string& text) {
  std::istringstream stream(text);
  std::string line;
  std::size_t samples = 0;
  while (std::getline(stream, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name_part = line.substr(0, space);
    const std::string value_part = line.substr(space + 1);
    ASSERT_FALSE(name_part.empty()) << line;
    ASSERT_TRUE(std::isalpha(static_cast<unsigned char>(name_part[0])) != 0)
        << line;
    const std::size_t brace = name_part.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name_part.back(), '}') << line;
    }
    char* end = nullptr;
    (void)std::strtod(value_part.c_str(), &end);
    EXPECT_EQ(end, value_part.c_str() + value_part.size())
        << "unparseable value in: " << line;
    ++samples;
  }
  EXPECT_GT(samples, 0u);
}

TEST(Exposition, RendersParseableTextWithConsistentCounts) {
  Metrics metrics;
  metrics.record(Endpoint::kAdmit, false, 120);
  metrics.record(Endpoint::kAdmit, false, 340);
  metrics.record(Endpoint::kAdmit, true, 90);
  metrics.record(Endpoint::kAnalyze, false, 55);
  RuntimeStats runtime;
  runtime.connections_active = 3;
  runtime.workers = 2;
  runtime.uptime_seconds = 1.5;
  const Router router(RouterConfig{}, metrics, [&] { return runtime; });

  const std::string text = router.metrics_exposition();
  expect_valid_exposition(text);
  EXPECT_NE(text.find("rmts_requests_total{endpoint=\"admit\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rmts_request_errors_total{endpoint=\"admit\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rmts_request_latency_us_count{endpoint=\"admit\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find(
                "rmts_request_latency_us_bucket{endpoint=\"admit\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("rmts_request_latency_us_sum{endpoint=\"admit\"} 550"),
            std::string::npos);
  EXPECT_NE(text.find("rmts_connections_active 3"), std::string::npos);
  EXPECT_NE(text.find("rmts_uptime_seconds 1.5"), std::string::npos);
}

TEST(Exposition, HistogramBucketsAreCumulativeAndSparse) {
  Metrics metrics;
  metrics.record(Endpoint::kAdmit, false, 10);
  metrics.record(Endpoint::kAdmit, false, 10);
  metrics.record(Endpoint::kAdmit, false, 5000);
  const Router router(RouterConfig{}, metrics);
  const std::string text = router.metrics_exposition();

  // Cumulative `le` semantics: the bucket holding 10 counts 2, the one
  // holding 5000 counts all 3, and nothing in between is emitted.
  EXPECT_NE(text.find("le=\"10\"} 2"), std::string::npos) << text;
  std::size_t admit_buckets = 0;
  for (std::size_t pos = 0;
       (pos = text.find("rmts_request_latency_us_bucket{endpoint=\"admit\"",
                        pos)) != std::string::npos;
       ++pos) {
    ++admit_buckets;
  }
  EXPECT_EQ(admit_buckets, 3u);  // 10-bucket, 5000-bucket, +Inf
}

TEST(Exposition, StatsReplyCarriesTraceSections) {
  Metrics metrics;
  metrics.record(Endpoint::kAdmit, false, 100);
  const Router router(RouterConfig{}, metrics);
  const HandleOutcome out = router.handle(R"({"op":"stats"})");
  ASSERT_FALSE(out.error);
  const JsonValue reply = parse_ok(out.reply);
  ASSERT_NE(reply.find("tracing"), nullptr);
  if (trace::compiled_in()) {
    ASSERT_NE(reply.find("stages"), nullptr);
    ASSERT_NE(reply.find("counters"), nullptr);
    EXPECT_TRUE(reply.find("stages")->is_object());
    EXPECT_TRUE(reply.find("counters")->is_object());
    // Every trace counter, e.g. the MaxSplit pair and the utilization
    // check's rejects, reaches both surfaces.
    const std::string text = router.metrics_exposition();
    for (const char* name : {"max_split_calls", "max_split_probes",
                             "admission_utilization_rejects"}) {
      EXPECT_NE(reply.find("counters")->find(name), nullptr) << name;
      EXPECT_NE(text.find("rmts_trace_events_total{counter=\"" +
                          std::string(name) + "\"}"),
                std::string::npos)
          << name;
    }
  }
  // Endpoint quantiles are doubles from the HDR sketch, not bucket edges.
  const JsonValue* endpoints = reply.find("endpoints");
  ASSERT_NE(endpoints, nullptr);
  const JsonValue* admit = endpoints->find("admit");
  ASSERT_NE(admit, nullptr);
  ASSERT_NE(admit->find("p50_us"), nullptr);
  EXPECT_DOUBLE_EQ(admit->find("p50_us")->as_double(), 100.0);
  ASSERT_NE(admit->find("mean_us"), nullptr);
}

// ----------------------------------------------------------- live server --

class LiveServer {
 public:
  explicit LiveServer(ServerConfig config) : server_(std::move(config)) {
    thread_ = std::thread([this] { server_.run(); });
  }
  ~LiveServer() {
    server_.request_stop();
    thread_.join();
  }
  Server* operator->() noexcept { return &server_; }

 private:
  Server server_;
  std::thread thread_;
};

ServerConfig test_config() {
  ServerConfig config;
  config.port = 0;
  config.workers = 2;
  config.drain_timeout_ms = 2000;
  return config;
}

TEST(LiveMetrics, MetricsOpAndHttpScrapeSurviveConcurrentLoad) {
  LiveServer server(test_config());
  const std::uint16_t port = server->port();
  const auto tasks = TaskSet::from_pairs({{1, 4}, {1, 5}, {2, 10}});

  // Background admit load while the exposition is scraped repeatedly.
  std::atomic<bool> stop{false};
  std::thread load([&] {
    Client client("127.0.0.1", port);
    const std::string request = make_admit_request(2, tasks);
    while (!stop.load(std::memory_order_relaxed)) {
      (void)client.request(request);
    }
  });

  for (int round = 0; round < 5; ++round) {
    // JSON-wrapped scrape over the line protocol.
    Client client("127.0.0.1", port);
    const JsonValue reply = parse_ok(client.request(make_metrics_request(7)));
    ASSERT_NE(reply.find("ok"), nullptr);
    ASSERT_TRUE(reply.find("ok")->as_bool());
    ASSERT_NE(reply.find("id"), nullptr);
    EXPECT_EQ(reply.find("id")->as_int(), 7);
    ASSERT_NE(reply.find("text"), nullptr);
    const std::string text(reply.find("text")->as_string());
    expect_valid_exposition(text);
    EXPECT_NE(text.find("rmts_requests_total{"), std::string::npos);
    EXPECT_NE(text.find("rmts_workers 2"), std::string::npos);
  }

  {
    // Raw HTTP scrape on the same port: headers, then the exposition
    // body, then the server closes the connection.
    Client curl("127.0.0.1", port);
    curl.send_line("GET /metrics HTTP/1.0\r");
    std::string body;
    bool saw_status = false;
    try {
      for (;;) {
        const std::string line = curl.read_reply();
        if (line.rfind("HTTP/1.0 200", 0) == 0) saw_status = true;
        body += line;
        body += '\n';
      }
    } catch (const TransportError&) {
      // Connection closed after the response -- expected.
    }
    EXPECT_TRUE(saw_status) << body;
    EXPECT_NE(body.find("Content-Length: "), std::string::npos);
    EXPECT_NE(body.find("rmts_requests_total{"), std::string::npos);
    EXPECT_NE(body.find("rmts_request_latency_us_bucket{"), std::string::npos);
  }

  {
    // Any other GET path is a 404, also followed by a close.
    Client curl("127.0.0.1", port);
    curl.send_line("GET /nope HTTP/1.0\r");
    std::string body;
    try {
      for (;;) {
        body += curl.read_reply();
        body += '\n';
      }
    } catch (const TransportError&) {
    }
    EXPECT_NE(body.find("404 Not Found"), std::string::npos) << body;
  }

  stop.store(true, std::memory_order_relaxed);
  load.join();

  // The scrapes themselves were recorded: metrics endpoint counts the
  // JSON ops plus the raw HTTP hit.
  EXPECT_GE(server->metrics().snapshot(Endpoint::kMetrics).requests, 6u);
}

}  // namespace
}  // namespace rmts::server
