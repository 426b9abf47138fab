// E10: ablations of the design decisions DESIGN.md calls out.
//
//  (a) admission test: exact RTA (RM-TS/light) vs utilization threshold
//      (SPA1) -- the single change the paper makes over [16]; everything
//      else (order, worst-fit, splitting) is held identical.
//  (b) processor selection: worst-fit (required by the Lemma 7 proof) vs
//      first-fit, with RTA admission in both.
//  (c) split granularity: MaxSplit prefixes quantized to 1 / 100 / 1000
//      ticks (periods start at 1000 ticks, so 1000 ~= "whole-task" moves).
#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace rmts;
  const std::size_t m = 8;
  const std::size_t n = 32;
  bench::banner("E10 ablations",
                "(a) RTA admission is the load-bearing change vs [16]; "
                "(b) worst-fit matters little on average (it matters for the proof); "
                "(c) coarse split granularity costs little until it approaches "
                "whole periods",
                "M=8, N=32, light sets, 200 sets/point");

  AcceptanceConfig config;
  config.workload.tasks = n;
  config.workload.processors = m;
  config.workload.max_task_utilization = light_task_threshold(n);
  config.utilization_points = sweep(0.66, 0.98, 9);
  config.samples = 200;

  const TestRoster roster{
      // (a) admission ablation
      std::make_shared<RmtsLight>(),  // RTA admission (paper)
      std::make_shared<Spa1>(),       // threshold admission ([16])
      // (b) selection ablation
      std::make_shared<RmtsLight>(SelectionPolicy::kFirstFit),
      // (c) granularity ablation
      std::make_shared<RmtsLight>(SelectionPolicy::kWorstFit, 100),
      std::make_shared<RmtsLight>(SelectionPolicy::kWorstFit, 1000),
  };
  const AcceptanceResult result = run_acceptance(config, roster);
  const Table table = result.to_table();
  table.print_text(std::cout, "ablation acceptance ratios");
  bench::JsonReport report("e10", "ablation acceptance ratios vs U_M");
  report.add_table("rows", table);
  report.write();

  std::cout << "\n50%-acceptance frontier:\n";
  for (std::size_t a = 0; a < roster.size(); ++a) {
    std::cout << "  " << result.algorithm_names[a] << ": U_M = "
              << Table::num(result.last_point_above(a, 0.5), 3) << '\n';
  }
  return 0;
}
