// E20: adaptive overload control -- static per-class admission budgets
// vs the AIMD controller (src/server/overload.hpp), driven past
// saturation by the open-loop Poisson arrival process in
// tools/load/load.hpp, all in-process over real loopback TCP.
//
// Protocol:
//
//  1. measure the saturation throughput with a closed loop at effectively
//     unlimited budgets (service rate at full utilization -- a closed
//     loop cannot overload the server, so this is the honest capacity);
//  2. sweep open-loop offered load at multiples of that rate (0.5x below
//     saturation through 3x past it), once with budgets frozen at the
//     static default and once with the adaptive controller, recording
//     goodput, sheds, and the admit class's end-to-end p99 against its
//     SLO.  Each cell runs an unrecorded warmup pass first so the
//     controller converges (and the static queue reaches its standing
//     depth) before the measured window opens -- steady state is what the
//     SLO claim is about, and both modes get the identical warmup;
//  3. at 2x saturation, attach per-request deadlines and client retries
//     (both modes again) to show expiry-based queue cleanup and
//     hint-honoring retry behavior under the same overload.
//
// Target: past saturation (>= 2x) the adaptive controller holds the
// admit p99 SLO that static budgets blow through, at no goodput cost --
// and below saturation (0.5x) adapting costs nothing.
//
// Every cell starts a fresh Server (fresh metrics, fresh ephemeral port).
// `--smoke` shrinks windows and the sweep to a ~2s plumbing check for
// ctest (labels: overload;server); it validates the harness, not the
// target.
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "load/load.hpp"
#include "server/overload.hpp"
#include "server/server.hpp"

namespace {

using namespace rmts;

constexpr std::uint64_t kAdmitSloUs = 30'000;  // interactive-class SLO

/// The contended mix: mostly cheap interactive ops (cached admit ~25 us,
/// analyze ~40 us) plus the expensive batch classes (simulate ~0.7 ms,
/// robustness ~3.4 ms per request on the reference box) that build the
/// worker-pool backlog every admit has to queue behind.
server::OpMix contended_mix() {
  server::OpMix mix;
  mix.admit = 8.0;
  mix.analyze = 2.0;
  mix.simulate = 2.0;
  mix.robustness = 1.0;
  return mix;
}

server::ServerConfig server_config(bool adaptive) {
  server::ServerConfig config;
  config.port = 0;
  config.max_in_flight = 1024;  // per-class budgets are the real limit
  config.overload.adaptive = adaptive;
  // Both modes start from the same default budget (64); static freezes
  // there, adaptive moves with the measured interval p99.
  //
  // The pool is one shared FIFO, so an admit's end-to-end tail is the
  // TOTAL standing backlog, not just its own class's.  The interactive
  // classes (admit, analyze) get the end-to-end tolerance; the expensive
  // batch classes get deliberately tighter SLOs, which is how an operator
  // caps the standing work those classes may park in the pool -- tight
  // enough that what remains fits inside the interactive SLO.
  auto& slo = config.overload.slo_p99_us;
  slo[static_cast<std::size_t>(server::BudgetClass::kAdmit)] = kAdmitSloUs;
  slo[static_cast<std::size_t>(server::BudgetClass::kAnalyze)] = kAdmitSloUs;
  slo[static_cast<std::size_t>(server::BudgetClass::kSimulate)] = 8'000;
  slo[static_cast<std::size_t>(server::BudgetClass::kRobustness)] = 10'000;
  return config;
}

server::LoadConfig load_config(std::uint16_t port, double seconds,
                               std::size_t connections) {
  server::LoadConfig load;
  load.port = port;
  load.connections = connections;
  load.seconds = seconds;
  load.mix = contended_mix();
  load.tasks = 12;
  load.processors = 4;
  load.normalized_utilization = 0.6;
  load.seed = 42;
  return load;
}

struct Cell {
  server::LoadReport load;
  server::RuntimeStats runtime;
};

/// Starts a fresh in-process server in `mode`, drives it with an
/// unrecorded copy of `load` for `warmup_seconds` (controller
/// convergence + admission-cache fill), then runs the measured pass.
Cell run_cell(bool adaptive, server::LoadConfig load, double warmup_seconds) {
  server::Server server(server_config(adaptive));
  load.port = server.port();
  std::thread loop([&server] { server.run(); });
  if (warmup_seconds > 0.0) {
    server::LoadConfig warm = load;
    warm.seconds = warmup_seconds;
    warm.seed = load.seed + 1;  // warm the cache, not the exact sequence
    (void)server::run_load(warm);
  }
  Cell cell;
  cell.load = server::run_load(load);
  cell.runtime = server.runtime_stats();
  server.request_stop();
  loop.join();
  return cell;
}

double admit_p99_us(const Cell& cell) {
  return cell.load
      .per_op_latency_us[static_cast<std::size_t>(server::OpClass::kAdmit)]
      .quantile(0.99);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const double calibrate_seconds = smoke ? 0.3 : 1.5;
  const double cell_seconds = smoke ? 0.4 : 4.0;
  // AIMD recovery is additive (+1 per tick): after the initial transient
  // crushes every budget, the admit budget needs ~4s of compliant ticks
  // to climb back to its steady-state working level.  The warmup must
  // cover the full shrink-then-regrow cycle or the measured window reads
  // the transient, not the controller's fixed point.
  const double warmup_seconds = smoke ? 0.2 : 8.0;
  const std::size_t connections = 4;
  const std::vector<double> multiples =
      smoke ? std::vector<double>{2.0} : std::vector<double>{0.5, 1.0, 2.0, 3.0};
  const unsigned cores = std::thread::hardware_concurrency();

  bench::banner(
      "E20 overload control",
      "past saturation (>= 2x) the adaptive AIMD budgets hold the admit "
      "p99 SLO that static budgets blow through, at goodput >= the static "
      "baseline; below saturation adapting costs nothing",
      "live rmts_serve over loopback TCP, open-loop Poisson driver, "
      "admit:analyze:simulate:robustness = 8:2:2:1, N=12, M=4, U_M=0.6 "
      "(hardware_concurrency=" +
          std::to_string(cores) + ")");

  bench::JsonReport report(
      "e20",
      "adaptive overload control: open-loop offered-load sweep past "
      "saturation, static vs adaptive per-class admission budgets, plus a "
      "deadline+retry cell at 2x; admit SLO p99 <= " +
          std::to_string(kAdmitSloUs / 1000) +
          " ms; hardware_concurrency=" + std::to_string(cores));

  // --- 1. Closed-loop saturation throughput. ----------------------------
  server::LoadConfig calib = load_config(0, calibrate_seconds, connections);
  const Cell saturation =
      run_cell(/*adaptive=*/false, calib, warmup_seconds / 2.0);
  const double sat_qps = saturation.load.qps();
  std::cout << "calibration: closed-loop saturation " << Table::num(sat_qps, 0)
            << " qps (" << saturation.load.requests << " requests, admit p99 "
            << Table::num(admit_p99_us(saturation) / 1000.0, 2) << " ms)\n";

  // --- 2. Offered-load sweep, static vs adaptive. -----------------------
  Table sweep({"mode", "x sat", "offered qps", "qps", "goodput", "ok", "shed",
               "expired", "errors", "admit p99 ms", "slo ms", "slo met",
               "p99 ms", "budget admit", "ticks"});
  double static_goodput_2x = 0.0;
  double adaptive_goodput_2x = 0.0;
  double adaptive_admit_p99_2x = 0.0;
  double static_goodput_low = 0.0;
  double adaptive_goodput_low = 0.0;
  for (const double mult : multiples) {
    for (const bool adaptive : {false, true}) {
      server::LoadConfig load = load_config(0, cell_seconds, connections);
      load.offered_qps = mult * sat_qps;
      const Cell cell = run_cell(adaptive, load, warmup_seconds);
      const double p99_us = admit_p99_us(cell);
      const bool slo_met = p99_us <= static_cast<double>(kAdmitSloUs);
      const auto& admit_class = cell.runtime.classes[static_cast<std::size_t>(
          server::BudgetClass::kAdmit)];
      if (mult >= 2.0 && mult < 2.5) {
        (adaptive ? adaptive_goodput_2x : static_goodput_2x) =
            cell.load.goodput();
        if (adaptive) adaptive_admit_p99_2x = p99_us;
      }
      if (mult < 1.0) {
        (adaptive ? adaptive_goodput_low : static_goodput_low) =
            cell.load.goodput();
      }
      sweep.add_row({adaptive ? "adaptive" : "static", Table::num(mult, 1),
                     Table::num(load.offered_qps, 0),
                     Table::num(cell.load.qps(), 0),
                     Table::num(cell.load.goodput(), 0),
                     std::to_string(cell.load.ok),
                     std::to_string(cell.load.shed),
                     std::to_string(cell.load.expired),
                     std::to_string(cell.load.errors +
                                    cell.load.transport_errors),
                     Table::num(p99_us / 1000.0, 2),
                     Table::num(static_cast<double>(kAdmitSloUs) / 1000.0, 0),
                     slo_met ? "yes" : "NO",
                     Table::num(cell.load.percentile_micros(0.99) / 1000.0, 2),
                     std::to_string(admit_class.budget),
                     std::to_string(cell.runtime.controller_ticks)});
    }
  }
  sweep.print_text(std::cout, "offered-load sweep (static vs adaptive)");
  report.add_table("offered_load_sweep", sweep);

  // --- 3. Deadlines + retrying clients at 2x saturation. ----------------
  Table cooperative({"mode", "offered qps", "qps", "goodput", "ok", "shed",
                     "retries", "expired", "errors", "admit p99 ms",
                     "p99 ms"});
  for (const bool adaptive : {false, true}) {
    server::LoadConfig load = load_config(0, cell_seconds, connections);
    load.offered_qps = 2.0 * sat_qps;
    load.deadline_ms = 100;  // queued past this -> deadline_expired drop
    load.retry = true;       // resend sheds once retry_after_ms elapses
    load.max_attempts = 3;
    const Cell cell = run_cell(adaptive, load, warmup_seconds);
    cooperative.add_row(
        {adaptive ? "adaptive" : "static", Table::num(load.offered_qps, 0),
         Table::num(cell.load.qps(), 0), Table::num(cell.load.goodput(), 0),
         std::to_string(cell.load.ok), std::to_string(cell.load.shed),
         std::to_string(cell.load.retries), std::to_string(cell.load.expired),
         std::to_string(cell.load.errors + cell.load.transport_errors),
         Table::num(admit_p99_us(cell) / 1000.0, 2),
         Table::num(cell.load.percentile_micros(0.99) / 1000.0, 2)});
  }
  cooperative.print_text(std::cout,
                         "2x saturation with deadlines (100 ms) + retries");
  report.add_table("deadline_retry_2x", cooperative);
  report.write();

  if (!smoke) {
    const bool slo_held =
        adaptive_admit_p99_2x > 0.0 &&
        adaptive_admit_p99_2x <= static_cast<double>(kAdmitSloUs);
    const bool goodput_held = adaptive_goodput_2x >= static_goodput_2x;
    const bool below_sat_ok =
        static_goodput_low > 0.0 &&
        adaptive_goodput_low >= 0.9 * static_goodput_low;
    const bool met = slo_held && goodput_held && below_sat_ok;
    std::cout << (met ? "\nTARGET MET" : "\nTARGET MISSED")
              << ": at 2x saturation adaptive admit p99 "
              << Table::num(adaptive_admit_p99_2x / 1000.0, 2) << " ms (SLO "
              << kAdmitSloUs / 1000 << " ms, held: " << (slo_held ? "yes" : "NO")
              << "), goodput adaptive/static "
              << Table::num(adaptive_goodput_2x, 0) << "/"
              << Table::num(static_goodput_2x, 0) << " qps ("
              << (goodput_held ? "yes" : "NO")
              << "); below saturation adaptive/static "
              << Table::num(adaptive_goodput_low, 0) << "/"
              << Table::num(static_goodput_low, 0) << " qps ("
              << (below_sat_ok ? "no regression" : "REGRESSION") << ")\n";
  }
  return 0;
}
