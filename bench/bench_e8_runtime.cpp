// E8: algorithm cost (google-benchmark microbenchmarks).
//
// Quantifies what the paper asserts qualitatively: exact RTA and MaxSplit
// are pseudo-polynomial "but in practice very efficient" (Section IV-A),
// and prices the shipped per-constraint MaxSplit against the
// scheduling-point method of [22] (the test-only oracle).  Also scales
// full partitioning runs with N and M -- the cost a design
// loop pays per candidate configuration -- and exercises the two
// performance layers behind every experiment binary: the ProcessorState
// admission cache (BM_AdmissionScan, BM_Partition, BM_MaxSplit) and the
// persistent thread pool behind parallel_for (BM_AcceptanceSweep).
//
// Results are additionally written to BENCH_e8.json (google-benchmark JSON
// schema) in the working directory so the perf trajectory is machine
// trackable across PRs.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "oracle/max_split_points.hpp"
#include "partition/max_split.hpp"
#include "rta/rta.hpp"
#include "sim/simulator.hpp"
#include "workload/generators.hpp"

namespace {

using namespace rmts;

/// Deterministic hosted processor with `count` moderately loaded subtasks,
/// periods uniform in [10^3, 10^6] or, with `log_uniform`, log-uniform
/// there (the workload generators' default, and the admit-large shape).
ProcessorState hosted_processor(std::size_t count, bool log_uniform = false) {
  Rng rng(1234);
  ProcessorState processor;
  for (std::size_t i = 0; i < count; ++i) {
    const Time period = log_uniform ? rng.log_uniform_time(1000, 1000000)
                                    : rng.uniform_int(1000, 1000000);
    const Subtask s{i * 2 + 1,
                    static_cast<TaskId>(i),
                    0,
                    std::max<Time>(1, period / (2 * static_cast<Time>(count))),
                    period,
                    period,
                    SubtaskKind::kWhole};
    if (processor.fits(s)) processor.add(s);
  }
  return processor;
}

TaskSet workload(std::size_t tasks, std::size_t processors, double u_m) {
  Rng rng(4321);
  WorkloadConfig config;
  config.tasks = tasks;
  config.processors = processors;
  config.normalized_utilization = u_m;
  config.max_task_utilization = 0.5;
  return generate(rng, config);
}

void BM_Rta_ResponseTime(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const ProcessorState processor = hosted_processor(count);
  const auto hosted = processor.subtasks();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        response_time(500, 1000000, hosted.first(hosted.size())));
  }
}
BENCHMARK(BM_Rta_ResponseTime)->Arg(2)->Arg(8)->Arg(32);

/// MaxSplit as partitioning calls it.  points:0 is the shipped
/// per-constraint search, seeded from the processor's warm response
/// cache.  points:1 is the scheduling-point method of [22], which builds
/// every hosted subtask's testing set on each call: partitioning seals a
/// processor after its one split, so a per-processor testing-set cache
/// would never be hit twice.  The shipped search costs one analysis per
/// constraint plus ~log2(C) for the binding ones whatever the periods;
/// the testing sets grow with D/T, so short periods (the log-uniform
/// family) are where the oracle pays.
void max_split(benchmark::State& state, bool log_uniform) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const bool points = state.range(1) != 0;
  const ProcessorState processor = hosted_processor(count, log_uniform);
  const Subtask candidate{0, 999, 0, 400000, 800000, 800000, SubtaskKind::kWhole};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        points ? oracle::max_admissible_wcet(processor.subtasks(), candidate)
               : max_admissible_wcet(processor, candidate));
  }
}
void BM_MaxSplit(benchmark::State& state) { max_split(state, false); }
void BM_MaxSplitLogUniform(benchmark::State& state) { max_split(state, true); }
BENCHMARK(BM_MaxSplit)
    ->ArgsProduct({{2, 8, 32}, {0, 1}})
    ->ArgNames({"hosted", "points"});
BENCHMARK(BM_MaxSplitLogUniform)
    ->ArgsProduct({{2, 8, 32}, {0, 1}})
    ->ArgNames({"hosted", "points"});

/// Worst-fit style admission scan: many fits() probes against a fixed
/// hosted set, the hot loop of the P-RM baselines' pick_bin.  The
/// admission cache turns each probe from a full-processor re-analysis
/// into a seeded incremental one.
void BM_AdmissionScan(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  const ProcessorState processor = hosted_processor(count);
  Rng rng(777);
  std::vector<Subtask> candidates;
  for (std::size_t i = 0; i < 64; ++i) {
    const Time period = rng.uniform_int(1000, 1000000);
    candidates.push_back(Subtask{2 * (i % (count + 1)),  // interleaved ranks
                                 static_cast<TaskId>(1000 + i), 0,
                                 std::max<Time>(1, period / 8), period, period,
                                 SubtaskKind::kWhole});
  }
  for (auto _ : state) {
    std::size_t admitted = 0;
    for (const Subtask& candidate : candidates) {
      admitted += processor.fits(candidate) ? 1u : 0u;
    }
    benchmark::DoNotOptimize(admitted);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_AdmissionScan)->Arg(8)->Arg(32)->ArgName("hosted");

void BM_Partition(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto algo_id = state.range(1);
  const TaskSet tasks = workload(4 * m, m, 0.75);
  std::shared_ptr<const Partitioner> algorithm;
  switch (algo_id) {
    case 0: algorithm = std::make_shared<RmtsLight>(); break;
    case 1: algorithm = bench::rmts_ll(); break;
    case 2: algorithm = std::make_shared<Spa2>(); break;
    default: algorithm = bench::prm_ffd_rta(); break;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(algorithm->partition(tasks, m));
  }
  state.SetLabel(algorithm->name());
}
BENCHMARK(BM_Partition)
    ->ArgsProduct({{4, 16, 64}, {0, 1, 2, 3}})
    ->ArgNames({"M", "algo"})
    ->Unit(benchmark::kMicrosecond);

/// A small acceptance experiment end to end: the workload every bench_e*
/// binary pays per sweep point.  Thread counts > 1 ran on freshly spawned
/// std::threads in the seed; they now reuse the persistent pool.
void BM_AcceptanceSweep(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  AcceptanceConfig config;
  config.workload.tasks = 32;
  config.workload.processors = 8;
  config.workload.max_task_utilization = 0.5;
  config.utilization_points = sweep(0.6, 0.85, 4);
  config.samples = 24;
  config.threads = threads;
  const TestRoster roster{std::make_shared<RmtsLight>(),
                          std::make_shared<Spa2>()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_acceptance(config, roster));
  }
  state.SetLabel(threads == 0 ? "threads=hw" : "threads=" +
                                                   std::to_string(threads));
}
BENCHMARK(BM_AcceptanceSweep)
    ->Arg(1)
    ->Arg(4)
    ->Arg(0)
    ->ArgName("threads")
    ->Unit(benchmark::kMillisecond);

void BM_Simulator(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  WorkloadConfig config;
  config.tasks = 4 * m;
  config.processors = m;
  config.normalized_utilization = 0.7;
  config.max_task_utilization = 0.5;
  config.period_model = PeriodModel::kGrid;
  config.period_grid = small_hyperperiod_grid();
  const TaskSet tasks = generate(rng, config);
  const Assignment assignment = RmtsLight().partition(tasks, m);
  if (!assignment.success) {
    state.SkipWithError("partitioning failed");
    return;
  }
  SimConfig sim;
  sim.horizon = recommended_horizon(tasks, 1'000'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate(tasks, assignment, sim));
  }
  state.SetLabel("2 hyperperiods");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          sim.horizon);
}
BENCHMARK(BM_Simulator)->Arg(4)->Arg(16)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): mirror the console run into
// BENCH_e8.json so the perf trajectory is tracked in a machine-readable
// form without needing --benchmark_out plumbing in every caller.  The
// library insists on receiving the file name via --benchmark_out (it opens
// the stream itself), so default that flag when the caller did not set one.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string default_out = "--benchmark_out=BENCH_e8.json";
  const bool has_out = std::any_of(args.begin(), args.end(), [](const char* a) {
    return std::string_view(a).starts_with("--benchmark_out=");
  });
  if (!has_out) args.push_back(default_out.data());
  args.push_back(nullptr);
  int args_count = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) return 1;
  benchmark::ConsoleReporter console;
  benchmark::JSONReporter json;
  benchmark::RunSpecifiedBenchmarks(&console, &json);
  benchmark::Shutdown();
  return 0;
}
