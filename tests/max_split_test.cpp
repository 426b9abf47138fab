// MaxSplit (Definition 3): hand-computed values, the bottleneck property
// (Definition 2), its trace counters, and equivalence of the shipped
// per-constraint search with the scheduling-point oracle on randomized
// processors -- small hand-scale ones, admit-large-shaped ones, and ones
// outside the SoA kernel's fast regime.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "common/trace.hpp"
#include "oracle/max_split_points.hpp"
#include "partition/max_split.hpp"
#include "partition/processor_state.hpp"

namespace rmts {
namespace {

Subtask make_subtask(std::size_t priority, Time wcet, Time period,
                     Time deadline = 0) {
  return Subtask{priority,
                 static_cast<TaskId>(priority),
                 0,
                 wcet,
                 period,
                 deadline == 0 ? period : deadline,
                 SubtaskKind::kWhole};
}

TEST(MaxSplit, EmptyProcessorGivesFullBudget) {
  const ProcessorState empty;
  const Subtask candidate = make_subtask(3, 80, 100);
  EXPECT_EQ(max_admissible_wcet(empty, candidate), 80);
  EXPECT_EQ(oracle::max_admissible_wcet(empty.subtasks(), candidate), 80);
}

TEST(MaxSplit, EmptyProcessorCappedByDeadline) {
  const ProcessorState empty;
  const Subtask candidate = make_subtask(3, 90, 100, 40);  // Delta = 40 < C
  EXPECT_EQ(max_admissible_wcet(empty, candidate), 40);
  EXPECT_EQ(oracle::max_admissible_wcet(empty.subtasks(), candidate), 40);
}

// Hand example: hosted (C=50, T=100); candidate period 40.  Testing points
// {40, 80, 100}: max floor((t - 50) / ceil(t/40)) = max(-, 15, 16) = 16.
TEST(MaxSplit, HandComputedValue) {
  ProcessorState processor;
  processor.add(make_subtask(5, 50, 100));
  const Subtask candidate = make_subtask(2, 40, 40);
  EXPECT_EQ(max_admissible_wcet(processor, candidate), 16);
  EXPECT_EQ(oracle::max_admissible_wcet(processor.subtasks(), candidate), 16);
}

TEST(MaxSplit, ZeroWhenNothingFits) {
  ProcessorState processor;
  processor.add(make_subtask(5, 100, 100));  // fully loaded
  const Subtask candidate = make_subtask(2, 10, 50);
  EXPECT_EQ(max_admissible_wcet(processor, candidate), 0);
  EXPECT_EQ(oracle::max_admissible_wcet(processor.subtasks(), candidate), 0);
}

TEST(MaxSplit, NonPositiveDeadlineYieldsZero) {
  const ProcessorState empty;
  Subtask candidate = make_subtask(2, 10, 50);
  candidate.deadline = 0;
  EXPECT_EQ(max_admissible_wcet(empty, candidate), 0);
  candidate.deadline = -5;
  EXPECT_EQ(oracle::max_admissible_wcet(empty.subtasks(), candidate), 0);
}

TEST(MaxSplit, CandidateOwnDeadlineWithInterference) {
  // hp (C=20, T=100) above the candidate; candidate D=60 -> self budget 40.
  ProcessorState processor;
  processor.add(make_subtask(1, 20, 100));
  const Subtask candidate = make_subtask(4, 100, 100, 60);
  EXPECT_EQ(max_admissible_wcet(processor, candidate), 40);
  EXPECT_EQ(oracle::max_admissible_wcet(processor.subtasks(), candidate), 40);
}

TEST(MaxSplit, MidPriorityCandidateConstrainedBothWays) {
  // hp (10, 50) interferes with the candidate; lp (30, 200) is interfered
  // by it.  Both constraints must hold simultaneously.
  ProcessorState processor;
  processor.add(make_subtask(0, 10, 50));
  processor.add(make_subtask(9, 30, 200));
  const Subtask candidate = make_subtask(4, 70, 70);
  const Time budget =
      oracle::max_admissible_wcet(processor.subtasks(), candidate);
  EXPECT_EQ(max_admissible_wcet(processor, candidate), budget);
  ASSERT_GT(budget, 0);
  ASSERT_LT(budget, 70);
  Subtask fitted = candidate;
  fitted.wcet = budget;
  EXPECT_TRUE(processor.fits(fitted));
  fitted.wcet = budget + 1;
  EXPECT_FALSE(processor.fits(fitted));
}

/// The library's MaxSplit equals the scheduling-point oracle, the result
/// fits, and one more tick does not (Definition 2's bottleneck).
void expect_matches_oracle(const ProcessorState& processor,
                           const Subtask& candidate, int trial) {
  const Time budget = max_admissible_wcet(processor, candidate);
  ASSERT_EQ(budget, oracle::max_admissible_wcet(processor.subtasks(), candidate))
      << "trial " << trial;
  if (budget > 0) {
    Subtask fitted = candidate;
    fitted.wcet = budget;
    EXPECT_TRUE(processor.fits(fitted)) << "trial " << trial;
  }
  if (budget < candidate.wcet) {
    Subtask over = candidate;
    over.wcet = budget + 1;
    EXPECT_FALSE(processor.fits(over)) << "trial " << trial;
  }
}

// The two methods -- the shipped per-constraint search and the
// scheduling-point oracle -- agree on hand-scale random processors,
// candidate at any rank.
TEST(MaxSplit, MethodsAgreeAndLeaveBottleneck) {
  Rng rng(2024);
  for (int trial = 0; trial < 1000; ++trial) {
    ProcessorState processor;
    const int hosted = static_cast<int>(rng.uniform_int(0, 5));
    // Hosted subtasks with distinct priorities in 1..40; keep the load
    // moderate so some (but not all) candidates fit.
    std::vector<std::size_t> priorities;
    for (int i = 0; i < hosted; ++i) {
      std::size_t priority;
      do {
        priority = static_cast<std::size_t>(rng.uniform_int(1, 40));
      } while (std::find(priorities.begin(), priorities.end(), priority) !=
               priorities.end());
      priorities.push_back(priority);
      const Time period = rng.uniform_int(20, 300);
      Subtask s = make_subtask(priority, rng.uniform_int(1, period / 3), period);
      if (rng.uniform() < 0.3) {
        s.deadline = rng.uniform_int(s.wcet, period);  // synthetic deadline
        s.kind = SubtaskKind::kTail;
      }
      if (!processor.fits(s)) continue;  // keep the invariant: schedulable
      processor.add(s);
    }
    std::size_t cand_priority;
    do {
      cand_priority = static_cast<std::size_t>(rng.uniform_int(0, 41));
    } while (std::find(priorities.begin(), priorities.end(), cand_priority) !=
             priorities.end());
    const Time period = rng.uniform_int(20, 300);
    Subtask candidate = make_subtask(cand_priority, rng.uniform_int(1, period), period);
    if (rng.uniform() < 0.3) {
      candidate.deadline = rng.uniform_int(1, period);
    }
    expect_matches_oracle(processor, candidate, trial);
  }
}

/// Random hosted set on priorities 1..`count` (0 is left for the split
/// prototype), periods log-uniform in [period_lo, period_hi], wcets a
/// random share of `load` / count of the period, and about a third of
/// them tails with a synthetic deadline in [wcet, period].  Subtasks the
/// processor does not admit are skipped, so it stays schedulable.
ProcessorState random_processor(Rng& rng, std::size_t count, Time period_lo,
                                Time period_hi, double load) {
  ProcessorState processor;
  for (std::size_t i = 1; i <= count; ++i) {
    const Time period = rng.log_uniform_time(period_lo, period_hi);
    const double share = rng.uniform(0.2, 1.0) * load / static_cast<double>(count);
    Subtask s = make_subtask(
        i, std::max<Time>(1, static_cast<Time>(share * static_cast<double>(period))),
        period);
    if (rng.uniform() < 0.35) {
      s.deadline = rng.uniform_int(s.wcet, period);
      s.kind = SubtaskKind::kTail;
    }
    if (processor.fits(s)) processor.add(s);
  }
  return processor;
}

// The shape MaxSplit sees on the admit-large workload: log-uniform periods
// in [10^3, 10^6], up to a dozen hosted subtasks near full load, synthetic
// deadlines, and the prototype at top local priority (Lemma 2).
TEST(MaxSplit, MatchesOracleOnAdmitLargeShapedProcessors) {
  Rng rng(6401);
  for (int trial = 0; trial < 300; ++trial) {
    const auto count = static_cast<std::size_t>(rng.uniform_int(0, 12));
    const ProcessorState processor = random_processor(
        rng, count, 1'000, 1'000'000, rng.uniform(0.5, 0.95));
    const Time period = rng.log_uniform_time(1'000, 1'000'000);
    Subtask candidate = make_subtask(
        0, rng.uniform_int(1, period), period, rng.uniform_int(1, period));
    candidate.kind = SubtaskKind::kTail;
    expect_matches_oracle(processor, candidate, trial);
  }
}

// Periods and deadlines at or above 2^31, where fits() leaves the kernel's
// fast path for the checked scalar loop, up to magnitudes where the
// demand sums overflow int64.  Each trial's periods share one band
// [B, 8B), which keeps the oracle's testing sets small.
TEST(MaxSplit, MatchesOracleOutsideKernelFastRegime) {
  Rng rng(31);
  for (int trial = 0; trial < 300; ++trial) {
    const Time band = rng.log_uniform_time(Time{1} << 31, Time{1} << 59);
    const auto count = static_cast<std::size_t>(rng.uniform_int(0, 8));
    ProcessorState processor;
    for (std::size_t i = 1; i <= count; ++i) {
      const Time period = rng.uniform_int(band, 8 * band - 1);
      Subtask s = make_subtask(2 * i, rng.uniform_int(1, period / 2), period);
      s.deadline = rng.uniform_int(std::max(s.wcet, Time{1} << 31), period);
      if (processor.fits(s)) processor.add(s);
    }
    // Half the prototypes split at top priority, the rest land between
    // hosted ranks (odd ranks never tie with the even hosted ones).
    const std::size_t priority =
        rng.uniform() < 0.5
            ? 0
            : 2 * static_cast<std::size_t>(rng.uniform_int(
                      0, static_cast<std::int64_t>(count))) + 1;
    const Time period = rng.uniform_int(band, 8 * band - 1);
    const Subtask candidate =
        make_subtask(priority, rng.uniform_int(1, period), period,
                     rng.uniform_int(Time{1} << 31, period));
    expect_matches_oracle(processor, candidate, trial);
  }
}

TEST(MaxSplit, MonotoneInHostedLoad) {
  // Adding load to the processor can only shrink the admissible budget.
  ProcessorState light;
  light.add(make_subtask(5, 20, 100));
  ProcessorState heavy = light;
  heavy.add(make_subtask(7, 30, 150));
  const Subtask candidate = make_subtask(2, 60, 60);
  EXPECT_GE(max_admissible_wcet(light, candidate),
            max_admissible_wcet(heavy, candidate));
}

// One call flushes exactly one kMaxSplitCalls and its single-constraint
// analyses.  The HandComputedValue processor: hosted (C=50, T=D=100) with
// exact response s = 50; the candidate (T=D=40) goes on top, so the one
// constraint is the hosted subtask's deadline.  The O(1) bound is
// hi = min(40, 40, floor((100 - 50) / ceil(50/40))) = 25.  Each analysis
// at c starts from s + ceil(s/40) * (c - c_s), where (c_s, s) is the
// largest passing wcet and its response (initially (0, 50)):
//   c = 25: from 100, 50 + 3*25 = 125 > 100      miss -> search [0, 24]
//   c = 12: from  74, 50 + 2*12 =  74            pass (c_s, s) = (12, 74)
//   c = 18: from  86, 50 + 3*18 = 104 > 100      miss
//   c = 15: from  80, 50 + 2*15 =  80            pass (c_s, s) = (15, 80)
//   c = 16: from  82, 50 + 3*16 =  98, fixed     pass (c_s, s) = (16, 98)
//   c = 17: from 101 > 100                       miss -> 16
// 6 analyses, each one seeded re-analysis.
TEST(MaxSplit, CountsOneCallAndItsProbes) {
  if (!trace::compiled_in()) GTEST_SKIP() << "tracing compiled out";
  trace::set_enabled(true);
  ProcessorState processor;
  processor.add(make_subtask(5, 50, 100));
  const Subtask candidate = make_subtask(2, 40, 40);
  const trace::Snapshot before = trace::snapshot();
  EXPECT_EQ(max_admissible_wcet(processor, candidate), 16);
  const trace::Snapshot after = trace::snapshot();
  EXPECT_EQ(after.counter(trace::Counter::kMaxSplitCalls) -
                before.counter(trace::Counter::kMaxSplitCalls),
            1u);
  EXPECT_EQ(after.counter(trace::Counter::kMaxSplitProbes) -
                before.counter(trace::Counter::kMaxSplitProbes),
            6u);
  // The analyses are seeded admission re-analyses, counted there too.
  EXPECT_EQ(after.counter(trace::Counter::kAdmissionSeededRta) -
                before.counter(trace::Counter::kAdmissionSeededRta),
            6u);
}

TEST(ProcessorState, AddMaintainsPriorityOrderAndUtilization) {
  ProcessorState processor;
  processor.add(make_subtask(5, 10, 100));
  processor.add(make_subtask(1, 10, 50));
  processor.add(make_subtask(9, 10, 200));
  ASSERT_EQ(processor.subtasks().size(), 3u);
  EXPECT_EQ(processor.subtasks()[0].priority, 1u);
  EXPECT_EQ(processor.subtasks()[1].priority, 5u);
  EXPECT_EQ(processor.subtasks()[2].priority, 9u);
  EXPECT_NEAR(processor.utilization(), 0.1 + 0.2 + 0.05, 1e-12);
}

TEST(ProcessorState, FitsMatchesFullReanalysis) {
  Rng rng(55);
  for (int trial = 0; trial < 500; ++trial) {
    ProcessorState processor;
    std::vector<Subtask> all;
    for (int i = 0; i < 4; ++i) {
      const Time period = rng.uniform_int(20, 200);
      Subtask s = make_subtask(static_cast<std::size_t>(i * 2 + 1),
                               rng.uniform_int(1, period / 4), period);
      if (processor.fits(s)) {
        processor.add(s);
        all.push_back(s);
      }
    }
    const Time period = rng.uniform_int(20, 200);
    const Subtask candidate =
        make_subtask(static_cast<std::size_t>(rng.uniform_int(0, 4)) * 2,
                     rng.uniform_int(1, period), period);
    // Reference: full re-analysis of the merged, sorted list.
    std::vector<Subtask> merged = all;
    merged.push_back(candidate);
    std::sort(merged.begin(), merged.end(),
              [](const Subtask& a, const Subtask& b) { return a.priority < b.priority; });
    EXPECT_EQ(processor.fits(candidate), processor_schedulable(merged))
        << "trial " << trial;
  }
}

TEST(ProcessorState, ResponseTimeOfMatchesAnalyzeProcessor) {
  ProcessorState processor;
  processor.add(make_subtask(1, 20, 100));
  processor.add(make_subtask(4, 40, 150));
  const ProcessorRta rta = analyze_processor(processor.subtasks());
  ASSERT_TRUE(rta.schedulable);
  EXPECT_EQ(processor.response_time_of(0), rta.response[0]);
  EXPECT_EQ(processor.response_time_of(1), rta.response[1]);
}

TEST(ProcessorState, FullFlag) {
  ProcessorState processor;
  EXPECT_FALSE(processor.full());
  processor.mark_full();
  EXPECT_TRUE(processor.full());
}

}  // namespace
}  // namespace rmts
