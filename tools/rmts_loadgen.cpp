// rmts_loadgen: load generator for a running rmts_serve.
//
//   rmts_loadgen --port N [--host A] [--connections N] [--seconds S]
//                [--tasks N] [--processors N] [--util U] [--seed N]
//                [--alg NAME] [--bound NAME] [--json FILE]
//                [--mix admit=1,analyze=0,robustness=0,simulate=0,stats=0]
//                [--qps RATE] [--burst-factor F] [--burst-period S]
//                [--burst-duration S] [--deadline-ms MS]
//                [--retry [--max-attempts N]]
//                [--session [--churn-rate R]]
//
// By default each connection keeps exactly one request outstanding
// (closed loop), so the printed qps is the service's throughput at full
// utilization.  --qps switches to an open loop: Poisson arrivals at the
// given aggregate rate, pipelined without waiting for replies, which is
// how you drive the server past saturation and exercise its overload
// control (optionally with --burst-* flash crowds, --deadline-ms
// per-request deadlines, and --retry backoff honoring retry_after_ms).
// --session switches every connection to online-session churn: each opens
// its own long-lived session (session_open) and drives an admit/depart
// mix against it (--churn-rate = depart fraction), tracking live tickets
// so departures always name a real resident; per-op tables then report
// session_admit / session_depart.
// The driver itself lives in tools/load/load.hpp and is shared with the
// bench_e18/bench_e20 benchmarks.  Latency percentiles are interpolated
// HDR quantiles (relative error <= 3.1%), reported overall and per op
// class; --json additionally writes the full report as one JSON document.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "server/json.hpp"
#include "load/load.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --port N [--host A] [--connections N] [--seconds S]"
               " [--tasks N] [--processors N] [--util U] [--seed N]"
               " [--alg NAME] [--bound NAME] [--json FILE]"
               " [--mix admit=1,stats=0,...]"
               " [--qps RATE] [--burst-factor F] [--burst-period S]"
               " [--burst-duration S] [--deadline-ms MS]"
               " [--retry] [--max-attempts N]"
               " [--session] [--churn-rate R]\n";
  std::exit(2);
}

void write_quantiles(rmts::server::JsonWriter& w, const rmts::Histogram& h) {
  w.key("n");
  w.value(h.count());
  w.key("p50_us");
  w.value(h.quantile(0.50));
  w.key("p90_us");
  w.value(h.quantile(0.90));
  w.key("p99_us");
  w.value(h.quantile(0.99));
  w.key("mean_us");
  w.value(h.mean());
  w.key("max_us");
  w.value(h.max());
}

std::string report_json(const rmts::server::LoadConfig& config,
                        const rmts::server::LoadReport& report) {
  using rmts::server::OpClass;
  rmts::server::JsonWriter w;
  w.begin_object();
  w.key("connections");
  w.value(config.connections);
  if (config.session) {
    w.key("session");
    w.value(true);
    w.key("churn_rate");
    w.value(config.churn_rate);
  }
  w.key("seconds");
  w.value(report.elapsed_seconds);
  w.key("requests");
  w.value(report.requests);
  w.key("offered");
  w.value(report.offered);
  w.key("retries");
  w.value(report.retries);
  w.key("qps");
  w.value(report.qps());
  w.key("goodput");
  w.value(report.goodput());
  w.key("ok");
  w.value(report.ok);
  w.key("accepted");
  w.value(report.accepted);
  w.key("shed");
  w.value(report.shed);
  w.key("expired");
  w.value(report.expired);
  w.key("errors");
  w.value(report.errors);
  w.key("transport_errors");
  w.value(report.transport_errors);
  w.key("latency");
  w.begin_object();
  write_quantiles(w, report.latency_us);
  w.end_object();
  w.key("per_op");
  w.begin_object();
  for (std::size_t op = 0; op < rmts::server::kOpClassCount; ++op) {
    const rmts::Histogram& h = report.per_op_latency_us[op];
    if (h.count() == 0) continue;
    w.key(rmts::server::op_class_name(static_cast<OpClass>(op)));
    w.begin_object();
    w.key("ok");
    w.value(report.per_op_ok[op]);
    write_quantiles(w, h);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

/// Parses "admit=3,analyze=1,..." into an OpMix (unnamed ops stay 0).
rmts::server::OpMix parse_mix(const std::string& text, const char* argv0) {
  rmts::server::OpMix mix{};
  mix.admit = 0.0;
  std::istringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) usage(argv0);
    const std::string op = item.substr(0, eq);
    const double weight = std::atof(item.c_str() + eq + 1);
    if (op == "admit") {
      mix.admit = weight;
    } else if (op == "analyze") {
      mix.analyze = weight;
    } else if (op == "robustness") {
      mix.robustness = weight;
    } else if (op == "simulate") {
      mix.simulate = weight;
    } else if (op == "stats") {
      mix.stats = weight;
    } else {
      usage(argv0);
    }
  }
  return mix;
}

}  // namespace

int main(int argc, char** argv) {
  rmts::server::LoadConfig config;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (flag == "--host") {
      config.host = next();
    } else if (flag == "--port") {
      config.port = static_cast<std::uint16_t>(std::stoul(next()));
    } else if (flag == "--connections") {
      config.connections = std::stoul(next());
    } else if (flag == "--seconds") {
      config.seconds = std::atof(next().c_str());
    } else if (flag == "--tasks") {
      config.tasks = std::stoul(next());
    } else if (flag == "--processors") {
      config.processors = std::stoul(next());
    } else if (flag == "--util") {
      config.normalized_utilization = std::atof(next().c_str());
    } else if (flag == "--seed") {
      config.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (flag == "--alg") {
      config.algorithm = next();
    } else if (flag == "--bound") {
      config.bound = next();
    } else if (flag == "--mix") {
      config.mix = parse_mix(next(), argv[0]);
    } else if (flag == "--qps") {
      config.offered_qps = std::atof(next().c_str());
    } else if (flag == "--burst-factor") {
      config.burst_factor = std::atof(next().c_str());
    } else if (flag == "--burst-period") {
      config.burst_period_s = std::atof(next().c_str());
    } else if (flag == "--burst-duration") {
      config.burst_duration_s = std::atof(next().c_str());
    } else if (flag == "--deadline-ms") {
      config.deadline_ms = std::atoll(next().c_str());
    } else if (flag == "--retry") {
      config.retry = true;
    } else if (flag == "--session") {
      config.session = true;
    } else if (flag == "--churn-rate") {
      config.churn_rate = std::atof(next().c_str());
    } else if (flag == "--max-attempts") {
      config.max_attempts = std::atoi(next().c_str());
    } else if (flag == "--json") {
      json_path = next();
    } else {
      usage(argv[0]);
    }
  }
  if (config.port == 0) usage(argv[0]);

  try {
    const rmts::server::LoadReport report = rmts::server::run_load(config);
    std::cout << "rmts_loadgen: " << report.requests << " requests in "
              << report.elapsed_seconds << " s over " << config.connections
              << " connections"
              << (config.session          ? " (session churn)"
                  : config.offered_qps > 0.0 ? " (open loop)"
                                             : " (closed loop)")
              << '\n'
              << "  offered    " << report.offered << " (+" << report.retries
              << " retries)\n"
              << "  qps        " << report.qps() << " (goodput "
              << report.goodput() << ")\n"
              << "  ok         " << report.ok << " (" << report.accepted
              << " accepted)\n"
              << "  shed       " << report.shed << " (" << report.expired
              << " deadline-expired)\n"
              << "  errors     " << report.errors << " protocol, "
              << report.transport_errors << " transport\n"
              << "  latency_us p50=" << report.percentile_micros(0.50)
              << " p90=" << report.percentile_micros(0.90)
              << " p99=" << report.percentile_micros(0.99)
              << " max=" << report.max_micros() << '\n';
    for (std::size_t op = 0; op < rmts::server::kOpClassCount; ++op) {
      const rmts::Histogram& h = report.per_op_latency_us[op];
      if (h.count() == 0) continue;
      std::cout << "  " << rmts::server::op_class_name(
                              static_cast<rmts::server::OpClass>(op))
                << " n=" << h.count() << " p50=" << h.quantile(0.50)
                << " p90=" << h.quantile(0.90) << " p99=" << h.quantile(0.99)
                << " max=" << h.max() << '\n';
    }
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) {
        std::cerr << "rmts_loadgen: cannot write " << json_path << '\n';
        return 1;
      }
      out << report_json(config, report) << '\n';
    }
    return report.transport_errors == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "rmts_loadgen: " << e.what() << '\n';
    return 1;
  }
}
