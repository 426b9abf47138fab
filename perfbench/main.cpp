// perfbench: the repository benchmark.  One run = one workload, one seed:
//
//   perfbench --workload admit-small|admit-large|session-churn --seed N
//             --seconds S --trace 0|1 [--spans FILE]
//             [--inject none|corrupt|drop|shed]
//
// --trace 0 measures the end-to-end metrics over S seconds of untraced
// half-second slices; --trace 1 alternates untraced and traced slices and
// reports the per-layer metrics.  The last line of stdout is the JSON
// result; the exit code is 0 only if every reply matched its reference.
// See README.md for the workloads and what each metric should move.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <numeric>
#include <string>
#include <thread>

#include "common/histogram.hpp"
#include "common/trace.hpp"
#include "live.hpp"
#include "perfbench.hpp"
#include "replay.hpp"
#include "server/json.hpp"
#include "spans.hpp"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif
#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using rmts::trace::Counter;
using rmts::trace::Stage;

/// The warm-up lets the first-window effects (thread placement, socket
/// buffers, allocator and memo caches) settle before anything is timed.
constexpr double kWarmupSeconds = 2.0;
constexpr std::size_t kSetups = 21;
/// Wall time the admit layer replay runs for (whole pool passes).
constexpr double kAdmitReplaySeconds = 1.0;

struct Options {
  Workload workload{Workload::kAdmitSmall};
  std::uint64_t seed{0};
  double seconds{0.0};
  bool trace{false};
  std::string spans;
  Inject inject{Inject::kNone};
};

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload admit-small|admit-large|"
               "session-churn --seed N --seconds S --trace 0|1 "
               "[--spans FILE] [--inject none|corrupt|drop|shed]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        if (value == "admit-small") o.workload = Workload::kAdmitSmall;
        else if (value == "admit-large") o.workload = Workload::kAdmitLarge;
        else if (value == "session-churn") o.workload = Workload::kSessionChurn;
        else usage("unknown workload '" + value + "'");
        have_workload = true;
      } else if (flag == "--seed") {
        std::size_t used = 0;
        o.seed = std::stoull(value, &used);
        if (used != value.size()) usage("bad seed '" + value + "'");
        have_seed = true;
      } else if (flag == "--seconds") {
        std::size_t used = 0;
        o.seconds = std::stod(value, &used);
        if (used != value.size() || !(o.seconds > 0.0 && o.seconds <= 120.0)) {
          usage("--seconds must be in (0, 120]");
        }
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (flag == "--spans") {
        o.spans = value;
      } else if (flag == "--inject") {
        if (value == "none") o.inject = Inject::kNone;
        else if (value == "corrupt") o.inject = Inject::kCorrupt;
        else if (value == "drop") o.inject = Inject::kDrop;
        else if (value == "shed") o.inject = Inject::kShed;
        else usage("unknown injection '" + value + "'");
      } else {
        usage("unknown argument '" + flag + "'");
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return o;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

/// Nearest-rank quantile in microseconds; sorts `ns`.
double quantile_us(std::vector<std::uint32_t>& ns, double p) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  const auto n = static_cast<double>(ns.size());
  auto rank = static_cast<std::size_t>(std::ceil(p * n));
  rank = std::clamp<std::size_t>(rank, 1, ns.size());
  return static_cast<double>(ns[rank - 1]) / 1000.0;
}

double mean_us(const std::vector<std::uint32_t>& ns) {
  if (ns.empty()) return 0.0;
  double sum = 0.0;
  for (const std::uint32_t v : ns) sum += static_cast<double>(v);
  return sum / static_cast<double>(ns.size()) / 1000.0;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Sums of the server's trace deltas over the traced windows.
struct TracedTotals {
  std::array<std::uint64_t, rmts::trace::kStageCount> count{};
  std::array<double, rmts::trace::kStageCount> total_ns{};
  std::array<std::uint64_t, rmts::trace::kCounterCount> counters{};
  rmts::Histogram queue_wait_ns{rmts::AtomicHistogram::kSubBits};

  [[nodiscard]] std::uint64_t n(Stage s) const {
    return count[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] double ns(Stage s) const {
    return total_ns[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] double c(Counter k) const {
    return static_cast<double>(counters[static_cast<std::size_t>(k)]);
  }
};

TracedTotals traced_totals(const std::vector<WindowResult>& windows) {
  TracedTotals t;
  for (const WindowResult& w : windows) {
    if (!w.window.traced || !w.before.trace || !w.after.trace) continue;
    const rmts::trace::Snapshot& a = *w.after.trace;
    const rmts::trace::Snapshot& b = *w.before.trace;
    for (std::size_t s = 0; s < rmts::trace::kStageCount; ++s) {
      t.count[s] += a.stages[s].count - b.stages[s].count;
      t.total_ns[s] +=
          static_cast<double>(a.stages[s].total_ns - b.stages[s].total_ns);
    }
    for (std::size_t k = 0; k < rmts::trace::kCounterCount; ++k) {
      t.counters[k] += a.counters[k] - b.counters[k];
    }
    const auto qw = static_cast<std::size_t>(Stage::kServerQueueWait);
    t.queue_wait_ns.merge(
        a.stages[qw].latency_ns.delta_since(b.stages[qw].latency_ns));
  }
  return t;
}

void print_row(const std::string& layer, double total, double self) {
  std::printf("  %-34s %12.3f %12.3f\n", layer.c_str(), total, self);
}

int run(const Options& o) {
  const Clock::time_point epoch = Clock::now();
  const std::size_t nproc = online_cpus();
  const std::size_t connections = nproc;
  const std::size_t generator_threads = connections;
  if (generator_threads > nproc || connections > nproc) {
    std::cerr << "perfbench: generator would exceed nproc\n";
    return 2;
  }
  if (o.trace && !rmts::trace::compiled_in()) {
    std::cerr << "perfbench: --trace 1 needs a build with RMTS_TRACING=ON\n";
    return 2;
  }
  rmts::trace::set_enabled(false);

  const bool churn = o.workload == Workload::kSessionChurn;
  AdmitWorkload admit;
  ChurnWorkload session;
  if (churn) {
    session = make_churn_workload(o.seed);
  } else {
    admit = make_admit_workload(o.workload, o.seed);
  }

  LiveConfig config;
  config.admit = churn ? nullptr : &admit;
  config.churn = churn ? &session : nullptr;
  config.connections = connections;
  config.seed = o.seed;
  config.inject = o.inject;
  config.setups = kSetups;
  config.warmup_seconds = kWarmupSeconds;
  config.epoch = epoch;
  // The measured time is cut into slices of about half a second, and the
  // timing metrics are medians over slices: a neighbour's burst on a
  // shared host then spoils some slices instead of the run, and short
  // slices fit between bursts.  In a traced run untraced and traced slices
  // alternate, so drift falls on both sides of the overhead comparison.
  const std::size_t slices = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::floor(2.0 * o.seconds)));
  for (std::size_t i = 0; i < slices; ++i) {
    config.windows.push_back(
        {o.seconds / static_cast<double>(slices), o.trace && i % 2 == 1});
  }
  // The timing metrics keep the calmest third of the slices (see the
  // end-to-end metrics below).  While fewer than that were calm, one more
  // slice runs, up to a quarter as many again; the cap keeps a run on a
  // noisy host within its time budget.
  const std::size_t kept_slices = (slices + 2) / 3;
  config.extra_windows = o.trace ? 0 : std::max<std::size_t>(1, slices / 4);
  config.calm_windows = kept_slices;
  LiveResult live = run_live(config);
  const std::size_t phases = live.phases.size();

  bool correct = true;
  std::vector<std::string> problems;
  ChurnReplay replay;
  SpanLog replay_spans(epoch, static_cast<std::uint32_t>(connections));
  std::vector<bool> traced_phase(phases, false);
  for (std::size_t k = 0; k < live.windows.size(); ++k) {
    traced_phase[kFirstWindow + k] = live.windows[k].window.traced;
  }
  if (churn) {
    replay = replay_churn(session, live.churn_logs, phases,
                          o.trace ? &replay_spans : nullptr, traced_phase);
    for (std::size_t p = 0; p < phases; ++p) {
      live.phases[p].ok -= replay.mismatches[p];
      live.phases[p].mismatch += replay.mismatches[p];
    }
    if (!replay.first_mismatch.empty()) {
      problems.push_back("session verdict mismatch: " + replay.first_mismatch);
    }
  }

  std::uint64_t failed = live.setup_failures;
  PhaseStats all;
  for (const PhaseStats& p : live.phases) {
    failed += p.failed();
    all.attempted += p.attempted;
    all.mismatch += p.mismatch;
    all.shed += p.shed;
    all.expired += p.expired;
    all.error += p.error;
    all.transport += p.transport;
  }
  if (live.setup_failures > 0) {
    problems.push_back(std::to_string(live.setup_failures) +
                       " connection set-up failure(s)");
  }
  if (failed > live.setup_failures) {
    problems.push_back(
        "failed requests: " + std::to_string(all.mismatch) + " mismatch, " +
        std::to_string(all.shed) + " shed, " + std::to_string(all.expired) +
        " expired, " + std::to_string(all.error) + " error, " +
        std::to_string(all.transport) + " no reply");
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              workload_name(o.workload),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0);
  std::printf("provenance: compiler=\"%s\" flags=\"%s\" cpu=\"%s\" nproc=%zu "
              "server_workers=%zu generator_threads=%zu connections=%zu "
              "loop=closed\n",
              PERFBENCH_COMPILER, PERFBENCH_FLAGS, cpu_model().c_str(), nproc,
              live.server_workers, generator_threads, connections);
  std::printf("calm wait: %.1f s, its last second %.1f %% stolen (calm is <= "
              "%.0f %%); then %zu timed set-ups and a %.1f s warm-up\n",
              live.calm_wait_seconds, 100.0 * live.calm_steal, 100.0 * kCalmSteal,
              live.setup_seconds.size(), kWarmupSeconds);

  std::vector<Metric> metrics;
  if (!o.trace) {
    // Timing metrics are medians over the calm slices (at most kCalmSteal
    // of the CPU stolen), and over at least the `kept_slices` least-stolen
    // ones: the measurement ran on until that many were calm or the extra
    // slices ran out.  A stretch of steal that covers less than two thirds
    // of the run then moves no timing metric, and a calm run uses all its
    // slices.  ok_share and utilization count every measured request.
    const std::size_t n = live.windows.size();
    std::vector<double> steal(n);
    std::size_t calm = 0;
    for (std::size_t k = 0; k < n; ++k) {
      steal[k] = steal_share(live.windows[k].before.host, live.windows[k].after.host);
      if (steal[k] <= kCalmSteal) ++calm;
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
    std::vector<bool> kept(n, false);
    for (std::size_t i = 0; i < std::min(n, std::max(calm, kept_slices)); ++i) {
      kept[order[i]] = true;
    }

    PhaseStats total;
    std::vector<double> rps, p50, p99;
    std::size_t min_samples = std::numeric_limits<std::size_t>::max();
    std::printf("slices (req/s, p99 us, steal %%, * = kept):");
    for (std::size_t k = 0; k < n; ++k) {
      PhaseStats& s = live.phases[kFirstWindow + k];
      const double slice_rps = static_cast<double>(s.ok) / live.windows[k].elapsed_s;
      const double slice_p99 = quantile_us(s.latency_ns, 0.99);
      std::printf(" %.0f/%.1f/%.1f%s", slice_rps, slice_p99, 100.0 * steal[k],
                  kept[k] ? "*" : "");
      if (kept[k]) {
        min_samples = std::min(min_samples, s.latency_ns.size());
        rps.push_back(slice_rps);
        p50.push_back(quantile_us(s.latency_ns, 0.50));
        p99.push_back(slice_p99);
      }
      total.merge(s);
    }
    std::printf("\n");
    const double packed =
        churn ? ratio(replay.utilization_sum,
                      static_cast<double>(replay.utilization_samples))
              : ratio(total.accepted_utilization, static_cast<double>(total.accepted));
    metrics = {
        {"throughput_rps", median(rps), "req/s"},
        {"latency_p50_us", median(p50), "us"},
        {"latency_p99_us", median(p99), "us"},
        {"ok_share", ratio(static_cast<double>(total.ok),
                           static_cast<double>(total.attempted)), "ratio"},
        {"setup_s", median(live.setup_seconds), "s"},
        {"peak_rss_mb", live.peak_rss_mb, "MiB"},
        {"packed_utilization", packed, "ratio"},
    };
    std::printf("measured %zu slices: %llu attempted, %llu ok, failed_share=%.6f; "
                "timing metrics are medians over %zu kept slices, each with "
                ">= %zu latency samples (>= %zu beyond p99)\n",
                live.windows.size(),
                static_cast<unsigned long long>(total.attempted),
                static_cast<unsigned long long>(total.ok),
                ratio(static_cast<double>(total.failed()),
                      static_cast<double>(total.attempted)),
                rps.size(), min_samples,
                min_samples - static_cast<std::size_t>(
                                  std::ceil(0.99 * static_cast<double>(min_samples))));
    std::printf("set-up seconds (%zu runs):", live.setup_seconds.size());
    for (const double s : live.setup_seconds) std::printf(" %.6f", s);
    std::printf("\n");
  } else {
    // ---- untraced vs traced windows ----
    double ok_untraced = 0, secs_untraced = 0, ok_traced = 0, secs_traced = 0;
    double cpu_process = 0, cpu_generator = 0, untraced_requests = 0;
    std::uint64_t shed = 0, expired = 0;
    std::vector<std::uint32_t> traced_latency;
    for (std::size_t k = 0; k < live.windows.size(); ++k) {
      const WindowResult& w = live.windows[k];
      const PhaseStats& s = live.phases[kFirstWindow + k];
      shed += w.after.runtime.requests_shed - w.before.runtime.requests_shed;
      expired += w.after.runtime.requests_expired - w.before.runtime.requests_expired;
      if (w.window.traced) {
        ok_traced += static_cast<double>(s.ok);
        secs_traced += w.elapsed_s;
        traced_latency.insert(traced_latency.end(), s.latency_ns.begin(),
                              s.latency_ns.end());
      } else {
        ok_untraced += static_cast<double>(s.ok);
        secs_untraced += w.elapsed_s;
        untraced_requests += static_cast<double>(s.attempted);
        cpu_process += w.after.process_cpu_s - w.before.process_cpu_s;
        cpu_generator += w.after.generator_cpu_s - w.before.generator_cpu_s;
      }
    }
    const double rps_untraced = ratio(ok_untraced, secs_untraced);
    const double rps_traced = ratio(ok_traced, secs_traced);
    const TracedTotals t = traced_totals(live.windows);
    const double requests = static_cast<double>(t.n(Stage::kServerCompute));
    const auto per_req_us = [&](Stage s) { return ratio(t.ns(s), requests) / 1000.0; };
    const auto per_span_us = [&](Stage s) {
      return ratio(t.ns(s), static_cast<double>(t.n(s))) / 1000.0;
    };
    const double client_us = mean_us(traced_latency);
    const double queue_us = per_span_us(Stage::kServerQueueWait);
    const double compute_us = per_span_us(Stage::kServerCompute);

    // ---- per-layer replay ----
    // Session op costs are heavy-tailed, so every subtraction below pairs
    // means over the same ops: those of the traced slices (connection 0's
    // alone where the Router replay is involved, as it replays that log).
    LayerTimes layers;
    if (churn) {
      layers = replay_session_layers(session, live.churn_logs.front(),
                                     traced_phase, replay_spans);
    } else {
      layers = replay_admit_layers(admit, o.seed, kAdmitReplaySeconds, replay_spans);
    }
    if (!layers.verdicts_match) {
      correct = false;
      problems.push_back("layer replay disagreed with the reference verdicts");
    }
    std::vector<std::uint32_t> admit_ns, depart_ns;
    double traced_ns = 0, traced_ops = 0, first_ns = 0, first_ops = 0;
    for (std::size_t c = 0; c < live.churn_logs.size(); ++c) {
      const std::vector<ChurnOp>& log = live.churn_logs[c];
      for (std::size_t i = 0; i < log.size(); ++i) {
        if (!measured(log[i], phases)) continue;
        const std::uint32_t ns = replay.op_ns[c][i];
        (log[i].depart ? depart_ns : admit_ns).push_back(ns);
        if (!traced_phase[log[i].phase]) continue;
        traced_ns += ns;
        ++traced_ops;
        if (c == 0) first_ns += ns, ++first_ops;
      }
    }
    const double admit_us = mean_us(admit_ns);
    const double depart_us = mean_us(depart_ns);
    const double online_op_us = ratio(first_ns, first_ops) / 1000.0;
    const double children_us = layers.parse_us + layers.validate_us +
                               layers.bound_us + layers.partition_us + online_op_us;
    const double other_us = layers.handle_us - children_us;
    const double session_stage_us =
        churn ? per_span_us(Stage::kRouterSession) - ratio(traced_ns, traced_ops) / 1000.0
              : 0.0;
    const double hits = t.c(Counter::kAdmissionCacheHit);
    const double misses = t.c(Counter::kAdmissionCacheMiss);
    const double gen_cpu_us = ratio(cpu_generator, untraced_requests) * 1e6;
    const double server_cpu_us =
        ratio(cpu_process - cpu_generator, untraced_requests) * 1e6;

    metrics = {
        {"protocol.decode_us", layers.decode_us, "us"},
        {"json.parse_us", layers.parse_us, "us"},
        {"tasks.validate_us", layers.validate_us, "us"},
        {"bounds.guaranteed_us", layers.bound_us, "us"},
        {"partition.partition_us", layers.partition_us, "us"},
        {"router.handle_us", layers.handle_us, "us"},
        {"router.other_us", other_us, "us"},
        {"online.admit_us", admit_us, "us"},
        {"online.admit_p99_us", quantile_us(admit_ns, 0.99), "us"},
        {"online.depart_us", depart_us, "us"},
        {"online.accept_ratio",
         ratio(static_cast<double>(replay.accepted),
               static_cast<double>(replay.admits)), "ratio"},
        {"online.split_share",
         ratio(static_cast<double>(replay.split_accepted),
               static_cast<double>(replay.accepted)), "ratio"},
        {"online.migrations_per_kop",
         ratio(static_cast<double>(replay.migrations),
               static_cast<double>(replay.ops)) * 1000.0, "count"},
        {"server.queue_wait_us", queue_us, "us"},
        {"server.queue_wait_p99_us", t.queue_wait_ns.quantile(0.99) / 1000.0, "us"},
        {"pool.task_wait_us", per_span_us(Stage::kPoolTaskWait), "us"},
        {"server.compute_us", compute_us, "us"},
        {"server.decode_us", per_req_us(Stage::kServerDecode), "us"},
        {"server.write_us", per_req_us(Stage::kServerWrite), "us"},
        {"pool.reqs_per_task", ratio(requests, t.c(Counter::kPoolTasksPosted)), "ratio"},
        {"partition.place_us", per_req_us(Stage::kPartitionPlace), "us"},
        {"partition.preassign_us", per_req_us(Stage::kPartitionPreassign), "us"},
        {"rta.iterations_per_req",
         ratio(t.c(Counter::kAdmissionRtaIterations), requests), "count"},
        {"rta.seeded_probes_per_req",
         ratio(t.c(Counter::kAdmissionSeededRta), requests), "count"},
        {"rta.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"rta.recomputed_per_req", ratio(misses, requests), "count"},
        {"router.session_us", session_stage_us, "us"},
        {"server.cpu_us_per_req", server_cpu_us, "us"},
        {"gen.cpu_us_per_req", gen_cpu_us, "us"},
        {"server.shed", static_cast<double>(shed), "count"},
        {"server.expired", static_cast<double>(expired), "count"},
        {"unattributed_us", client_us - queue_us - compute_us, "us"},
        {"trace.overhead_pct",
         rps_untraced > 0.0 ? (rps_untraced - rps_traced) / rps_untraced * 100.0 : 0.0,
         "%"},
    };

    // ---- self time per layer: the model tree the layers add up in ----
    std::printf("self time per layer (mean per request, us; replayed layer "
                "calls nest under router.handle, which performs each of them):\n");
    std::printf("  %-34s %12s %12s\n", "layer", "total_us", "self_us");
    print_row("client.request [live, traced]", client_us,
              client_us - queue_us - compute_us);
    print_row("  server.queue_wait [trace stage]", queue_us, queue_us);
    print_row("  server.compute [trace stage]", compute_us,
              compute_us - layers.handle_us);
    print_row("    router.handle [replay]", layers.handle_us, other_us);
    print_row("      json.parse [replay]", layers.parse_us, layers.parse_us);
    if (!churn) {
      print_row("      tasks.validate [replay]", layers.validate_us, layers.validate_us);
      print_row("      bounds.guaranteed [replay]", layers.bound_us, layers.bound_us);
      print_row("      partition.partition [replay]", layers.partition_us,
                layers.partition_us);
    } else {
      print_row("      online.admit|depart [replay]", online_op_us, online_op_us);
    }
    std::printf("  (client.request self = unattributed_us: socket I/O, event-loop "
                "framing -- decode %.3f + write %.3f per request -- and the "
                "generator; server.compute self = live compute beyond the "
                "single-thread replay)\n",
                per_req_us(Stage::kServerDecode), per_req_us(Stage::kServerWrite));
    std::printf("traced windows: %.0f server requests, %zu client samples; "
                "untraced %.1f req/s vs traced %.1f req/s\n",
                requests, traced_latency.size(), rps_untraced, rps_traced);

    std::vector<const SpanLog*> logs;
    for (const auto& log : live.spans) logs.push_back(log.get());
    logs.push_back(&replay_spans);
    const std::vector<SpanSummary> summary = summarize(logs);
    std::printf("bench-side spans (count, mean_us, self_us = span minus children):\n");
    for (std::size_t k = 0; k < kSpanNameCount; ++k) {
      if (summary[k].count == 0) continue;
      std::printf("  %-22s %10llu %12.3f %12.3f\n",
                  span_name(static_cast<SpanName>(k)),
                  static_cast<unsigned long long>(summary[k].count),
                  summary[k].mean_us, summary[k].self_us);
    }
    if (!o.spans.empty()) {
      if (write_spans(o.spans, logs)) {
        std::printf("spans written to %s\n", o.spans.c_str());
      } else {
        correct = false;
        problems.push_back("cannot write span file " + o.spans);
      }
    }
  }

  correct = correct && failed == 0;
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& p : problems) std::printf("FAILED: %s\n", p.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(all.attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            rmts::server::json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << '\n';
    return 2;
  }
}
