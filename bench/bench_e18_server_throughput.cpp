// E18: admission-control service throughput -- a live rmts_serve event
// loop + worker pool driven by the closed-loop load driver
// (tools/load/load.hpp), all in-process over real loopback TCP.
//
// Two sweeps:
//
//  * worker scaling -- admit-only mix at 64 connections, workers in
//    {1, 2, 4, 8}; the batched epoll dispatch should scale admit
//    throughput >= 2x from 1 to 8 workers ON A MULTI-CORE HOST.  The
//    hardware_concurrency column records what the box can actually
//    provide: with one core, every worker count serializes onto the same
//    CPU and the honest expectation is a flat ~1x curve.
//  * connection scaling -- a mixed op workload (admit/analyze/simulate/
//    stats) at the default worker count, connections in {1, 8, 64},
//    reporting qps and tail latency as concurrency grows.
//
// Every cell starts a fresh Server (fresh metrics, fresh ephemeral port)
// and runs the driver for a fixed wall-clock window.  `--smoke` shrinks
// the windows and sweep to a ~2s plumbing check for ctest (label:
// server); it validates the harness, not the scaling target.
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/trace.hpp"
#include "load/load.hpp"
#include "server/server.hpp"

namespace {

using namespace rmts;

/// Per-cell deltas of the stage tracer (zero when tracing is compiled
/// out): where a request's time went and how the admission cache did.
struct StageBreakdown {
  double queue_wait_avg_us{0.0};
  double compute_avg_us{0.0};
  double cache_hit_rate{0.0};

  static StageBreakdown between(const trace::Snapshot& before,
                                const trace::Snapshot& after) {
    StageBreakdown out;
    const auto avg_us = [&](trace::Stage stage) {
      const trace::StageSnapshot& a = after.stage(stage);
      const trace::StageSnapshot& b = before.stage(stage);
      const std::uint64_t count = a.count - b.count;
      if (count == 0) return 0.0;
      return static_cast<double>(a.total_ns - b.total_ns) /
             static_cast<double>(count) / 1000.0;
    };
    out.queue_wait_avg_us = avg_us(trace::Stage::kServerQueueWait);
    out.compute_avg_us = avg_us(trace::Stage::kServerCompute);
    const std::uint64_t hits =
        after.counter(trace::Counter::kAdmissionCacheHit) -
        before.counter(trace::Counter::kAdmissionCacheHit);
    const std::uint64_t misses =
        after.counter(trace::Counter::kAdmissionCacheMiss) -
        before.counter(trace::Counter::kAdmissionCacheMiss);
    if (hits + misses > 0) {
      out.cache_hit_rate =
          static_cast<double>(hits) / static_cast<double>(hits + misses);
    }
    return out;
  }
};

struct Cell {
  std::size_t workers;
  std::size_t connections;
  server::LoadReport load;
  server::RuntimeStats runtime;
  StageBreakdown stages;
};

/// Starts a fresh in-process server, drives it for `seconds`, drains it.
Cell run_cell(std::size_t workers, std::size_t connections, double seconds,
              const server::OpMix& mix) {
  server::ServerConfig config;
  config.port = 0;
  config.workers = workers;
  config.max_in_flight = 1024;  // measure service rate, not the shed path
  server::Server server(std::move(config));
  std::thread loop([&server] { server.run(); });

  Cell cell;
  cell.workers = workers;
  cell.connections = connections;
  server::LoadConfig load;
  load.port = server.port();
  load.connections = connections;
  load.seconds = seconds;
  load.mix = mix;
  load.tasks = 16;
  load.processors = 4;
  load.normalized_utilization = 0.6;
  load.seed = 42;
  const trace::Snapshot before = trace::snapshot();
  cell.load = server::run_load(load);
  cell.runtime = server.runtime_stats();
  cell.stages = StageBreakdown::between(before, trace::snapshot());

  server.request_stop();
  loop.join();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double seconds = smoke ? 0.3 : 2.0;
  const std::vector<std::size_t> worker_sweep =
      smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};
  const std::vector<std::size_t> connection_sweep =
      smoke ? std::vector<std::size_t>{4} : std::vector<std::size_t>{1, 8, 64};
  const std::size_t scaling_connections = smoke ? 8 : 64;
  const unsigned cores = std::thread::hardware_concurrency();

  bench::banner(
      "E18 server throughput",
      "batched epoll dispatch scales admit qps >= 2x from 1 to 8 workers "
      "at 64 connections (multi-core host; 1-core hosts serialize)",
      "live rmts_serve over loopback TCP, closed-loop driver, N=16, M=4, "
      "U_M=0.6 admit requests (hardware_concurrency=" +
          std::to_string(cores) + ")");

  bench::JsonReport report(
      "e18",
      "admission service throughput: worker scaling (admit-only, 64 "
      "connections) and connection scaling (mixed ops); closed-loop "
      "loopback TCP driver; hardware_concurrency=" +
          std::to_string(cores));

  // --- Worker scaling, admit-only. --------------------------------------
  server::OpMix admit_only;
  Table workers({"workers", "connections", "cores", "requests", "qps",
                 "p50 us", "p99 us", "max us", "qwait us", "compute us",
                 "cache hit", "shed", "errors"});
  double qps_w1 = 0.0;
  double qps_w8 = 0.0;
  for (const std::size_t w : worker_sweep) {
    const Cell cell = run_cell(w, scaling_connections, seconds, admit_only);
    if (w == 1) qps_w1 = cell.load.qps();
    if (w == worker_sweep.back()) qps_w8 = cell.load.qps();
    workers.add_row({std::to_string(w), std::to_string(cell.connections),
                     std::to_string(cores), std::to_string(cell.load.requests),
                     Table::num(cell.load.qps(), 0),
                     Table::num(cell.load.percentile_micros(0.50), 1),
                     Table::num(cell.load.percentile_micros(0.99), 1),
                     std::to_string(cell.load.max_micros()),
                     Table::num(cell.stages.queue_wait_avg_us, 1),
                     Table::num(cell.stages.compute_avg_us, 1),
                     Table::num(cell.stages.cache_hit_rate, 3),
                     std::to_string(cell.load.shed),
                     std::to_string(cell.load.errors +
                                    cell.load.transport_errors)});
  }
  workers.print_text(std::cout, "worker scaling (admit-only)");
  report.add_table("worker_scaling", workers);

  // --- Connection scaling, mixed ops. -----------------------------------
  server::OpMix mixed;
  mixed.admit = 4.0;
  mixed.analyze = 1.0;
  mixed.simulate = 1.0;
  mixed.stats = 1.0;
  Table conns({"connections", "workers", "requests", "qps", "ok", "p50 us",
               "p99 us", "max us", "qwait us", "compute us"});
  for (const std::size_t c : connection_sweep) {
    const Cell cell = run_cell(0 /* default workers */, c, seconds, mixed);
    conns.add_row({std::to_string(c), std::to_string(cell.runtime.workers),
                   std::to_string(cell.load.requests),
                   Table::num(cell.load.qps(), 0),
                   std::to_string(cell.load.ok),
                   Table::num(cell.load.percentile_micros(0.50), 1),
                   Table::num(cell.load.percentile_micros(0.99), 1),
                   std::to_string(cell.load.max_micros()),
                   Table::num(cell.stages.queue_wait_avg_us, 1),
                   Table::num(cell.stages.compute_avg_us, 1)});
  }
  conns.print_text(std::cout, "connection scaling (mixed ops)");
  report.add_table("connection_scaling", conns);
  report.write();

  if (!smoke) {
    const double ratio = qps_w1 > 0.0 ? qps_w8 / qps_w1 : 0.0;
    const bool met = ratio >= 2.0;
    std::cout << (met ? "\nTARGET MET" : "\nTARGET MISSED") << ": "
              << worker_sweep.back() << "-worker/1-worker admit qps ratio "
              << Table::num(ratio, 2) << " (target 2.0, cores=" << cores
              << ")\n";
    if (!met && cores < 2) {
      std::cout << "note: single-core host -- every worker count shares one "
                   "CPU, so the flat curve is the expected outcome here; the "
                   "target needs >= 8 cores to be meaningful\n";
    }
  }
  return 0;
}
