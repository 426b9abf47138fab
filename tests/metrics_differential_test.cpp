// The stats reply and the Prometheus exposition, rendered from one
// MetricsSnapshot (server/metrics.hpp), held byte for byte to the
// renderers they replaced (oracle/stats_render.hpp) on randomized
// endpoint metrics, event-loop counters and session states -- plus the
// property the single snapshot exists for: under concurrent recording,
// every scrape's request counter and latency count agree per endpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/trace.hpp"
#include "oracle/stats_render.hpp"
#include "server/client.hpp"
#include "server/router.hpp"

namespace rmts::server {
namespace {

/// Tracing stays off while comparing: a `stats` op's own span would
/// otherwise land between the two renders.
class TracingOff {
 public:
  TracingOff() { trace::set_enabled(false); }
  ~TracingOff() { trace::set_enabled(true); }
  TracingOff(const TracingOff&) = delete;
  TracingOff& operator=(const TracingOff&) = delete;
};

std::uint64_t any_u64(Rng& rng) {
  // Mostly everyday magnitudes, sometimes the whole 64-bit range.
  return rng.uniform() < 0.2 ? rng.next()
                             : static_cast<std::uint64_t>(
                                   rng.uniform_int(0, 1'000'000));
}

RuntimeStats random_runtime(Rng& rng) {
  RuntimeStats r;
  r.connections_accepted = any_u64(rng);
  r.connections_active = any_u64(rng);
  r.requests_shed = any_u64(rng);
  r.requests_expired = any_u64(rng);
  r.batches_dispatched = any_u64(rng);
  r.in_flight = any_u64(rng);
  r.uptime_seconds = rng.uniform() < 0.3
                         ? static_cast<double>(rng.uniform_int(0, 100'000))
                         : rng.uniform(0.0, 1e6);
  r.workers = static_cast<std::size_t>(rng.uniform_int(1, 64));
  r.adaptive = rng.uniform() < 0.5;
  r.controller_ticks = any_u64(rng);
  for (ClassRuntimeStats& cls : r.classes) {
    cls.budget = static_cast<std::size_t>(any_u64(rng));
    cls.in_flight = any_u64(rng);
    cls.shed = any_u64(rng);
    cls.expired = any_u64(rng);
    cls.retry_after_ms = static_cast<int>(rng.uniform_int(-5, 5'000'000));
  }
  return r;
}

void record_random(Metrics& metrics, Rng& rng, int count) {
  for (int i = 0; i < count; ++i) {
    const auto endpoint = static_cast<Endpoint>(
        rng.uniform_int(0, static_cast<std::int64_t>(kEndpointCount) - 1));
    const auto micros = static_cast<std::uint64_t>(
        rng.uniform() < 0.1 ? rng.uniform_int(0, 3)
                            : rng.log_uniform_time(1, 50'000'000));
    metrics.record(endpoint, rng.uniform() < 0.2, micros);
  }
}

/// Opens a few sessions, churns them and closes some, through the router.
void churn_sessions(const Router& router, Rng& rng) {
  std::vector<std::uint64_t> open;
  const auto sessions = rng.uniform_int(0, 4);
  for (std::int64_t s = 0; s < sessions; ++s) {
    const std::string reply = router.handle(make_session_open_request(
        static_cast<std::size_t>(rng.uniform_int(1, 4)))).reply;
    const std::size_t at = reply.find("\"session\":");
    ASSERT_NE(at, std::string::npos) << reply;
    open.push_back(std::stoull(reply.substr(at + 10)));
  }
  for (const std::uint64_t session : open) {
    const auto ops = rng.uniform_int(0, 30);
    for (std::int64_t op = 0; op < ops; ++op) {
      if (rng.uniform() < 0.3) {
        (void)router.handle(make_session_depart_request(
            session, static_cast<std::uint64_t>(rng.uniform_int(1, 20))));
        continue;
      }
      const Time period = rng.log_uniform_time(10, 100'000);
      const auto wcet = std::max<Time>(
          1, static_cast<Time>(rng.uniform(0.01, 0.6) *
                               static_cast<double>(period)));
      (void)router.handle(make_session_admit_request(session, wcet, period));
    }
    if (rng.uniform() < 0.3) {
      (void)router.handle(make_session_rebalance_request(session));
    }
  }
  if (!open.empty() && rng.uniform() < 0.5) {
    (void)router.handle(make_session_close_request(open.front()));
  }
}

/// An exposition split into families (a TYPE line and its samples), in
/// order -- except the three per-session families, which follow the
/// session field table's order (its stats JSON order) rather than the old
/// renderer's.  That is the one intentional difference, so they are
/// returned sorted, after the rest.
std::vector<std::string> families(const std::string& text) {
  std::vector<std::string> ordered;
  std::vector<std::string> per_session;
  std::istringstream lines(text);
  std::string line;
  std::vector<std::string>* into = &ordered;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::string name = line.substr(7, line.rfind(' ') - 7);
      const bool session = name == "rmts_session_resident_tasks" ||
                           name == "rmts_session_utilization" ||
                           name == "rmts_session_migrations_total";
      into = session ? &per_session : &ordered;
      into->emplace_back();
    }
    EXPECT_FALSE(into->empty()) << "sample before any TYPE line: " << line;
    if (into->empty()) into->emplace_back();
    into->back() += line + '\n';
  }
  EXPECT_EQ(per_session.size(), 3U) << text;
  std::sort(per_session.begin(), per_session.end());
  ordered.insert(ordered.end(), per_session.begin(), per_session.end());
  return ordered;
}

TEST(MetricsDifferential, StatsAndExpositionMatchTheOldRenderers) {
  Rng rng(2024);
  int with_sessions = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Metrics metrics;
    record_random(metrics, rng, static_cast<int>(rng.uniform_int(0, 400)));
    const RuntimeStats runtime = random_runtime(rng);
    std::function<RuntimeStats()> source;
    if (trial % 4 != 3) source = [&] { return runtime; };
    const Router router(RouterConfig{}, metrics, source);
    // Session ops run traced, so the trace sections carry stages too.
    churn_sessions(router, rng);
    if (!router.sessions().all_stats().empty()) ++with_sessions;

    const TracingOff off;
    EXPECT_EQ(router.handle(R"({"op":"stats"})").reply,
              oracle::stats_render::stats_reply(metrics, source,
                                                router.sessions()))
        << "trial " << trial;
    EXPECT_EQ(families(router.metrics_exposition()),
              families(oracle::stats_render::exposition(metrics, source,
                                                        router.sessions())))
        << "trial " << trial;
  }
  EXPECT_GT(with_sessions, 20);
}

/// `name{endpoint="e"} value` samples of one family, by endpoint.
std::map<std::string, std::uint64_t> samples(const std::string& text,
                                             const std::string& family) {
  std::map<std::string, std::uint64_t> out;
  std::istringstream lines(text);
  std::string line;
  const std::string prefix = family + "{endpoint=\"";
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t quote = line.find('"', prefix.size());
    out[line.substr(prefix.size(), quote - prefix.size())] =
        std::stoull(line.substr(line.rfind(' ') + 1));
  }
  return out;
}

TEST(MetricsDifferential, ConcurrentScrapesCountEachRequestOnce) {
  Metrics metrics;
  const Router router(RouterConfig{}, metrics);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (std::uint64_t t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      Rng rng = Rng(7).fork(t);
      while (!stop.load(std::memory_order_relaxed)) record_random(metrics, rng, 64);
    });
  }
  for (int scrape = 0; scrape < 200; ++scrape) {
    const std::string text = router.metrics_exposition();
    const auto requests = samples(text, "rmts_requests_total");
    const auto counts = samples(text, "rmts_request_latency_us_count");
    ASSERT_EQ(requests.size(), kEndpointCount) << text;
    for (const auto& [endpoint, n] : requests) {
      const auto it = counts.find(endpoint);
      // Only endpoints with requests carry a histogram.
      EXPECT_EQ(it == counts.end() ? 0 : it->second, n)
          << "scrape " << scrape << " endpoint " << endpoint;
    }
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
}

}  // namespace
}  // namespace rmts::server
