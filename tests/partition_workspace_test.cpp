// The per-thread partition workspace (partition/policies.hpp) must be
// invisible: a partitioner that borrows processors an earlier run on the
// same thread left behind -- more of them, fuller, sealed, with warm
// admission caches and kept probes -- must return exactly the Assignment
// a fresh thread computes.  The ClearedProcessor cases check the same at
// the level of one ProcessorState: after clear() it behaves like a
// default-constructed one, kernel mirror and kept probe included.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bounds/harmonic.hpp"
#include "common/rng.hpp"
#include "partition/baselines.hpp"
#include "partition/policies.hpp"
#include "partition/processor_state.hpp"
#include "partition/rmts.hpp"
#include "partition/rmts_light.hpp"
#include "partition/spa.hpp"
#include "rta/rta.hpp"
#include "workload/generators.hpp"

namespace rmts {
namespace {

/// Every partitioner that takes its processors from the workspace.
std::vector<std::unique_ptr<const Partitioner>> workspace_partitioners() {
  std::vector<std::unique_ptr<const Partitioner>> out;
  out.push_back(std::make_unique<Rmts>(std::make_shared<HarmonicChainBound>()));
  out.push_back(std::make_unique<RmtsLight>(SelectionPolicy::kWorstFit));
  out.push_back(std::make_unique<RmtsLight>(SelectionPolicy::kFirstFit));
  out.push_back(std::make_unique<RmtsLight>(SelectionPolicy::kWorstFit, 7));
  out.push_back(std::make_unique<PartitionedRm>(
      FitPolicy::kFirstFit, TaskOrder::kDecreasingUtilization,
      Admission::kExactRta));
  out.push_back(std::make_unique<PartitionedRm>(
      FitPolicy::kWorstFit, TaskOrder::kDecreasingUtilization,
      Admission::kExactRta));
  out.push_back(std::make_unique<PartitionedEdf>());
  out.push_back(std::make_unique<Spa1>());
  out.push_back(std::make_unique<Spa2>());
  return out;
}

struct Shape {
  std::size_t processors;
  std::size_t tasks;
  double normalized_utilization;
};

/// M goes 16 -> 4 -> 64 -> 1 -> 16 with N varying; the loads reach past
/// every partitioner's acceptance cliff, so failed runs (and processors
/// left sealed by them) are part of the sequence.
std::vector<TaskSet> sequence_sets(const std::vector<Shape>& shapes) {
  Rng rng(20240611);
  std::vector<TaskSet> sets;
  for (const Shape& shape : shapes) {
    WorkloadConfig config;
    config.tasks = shape.tasks;
    config.processors = shape.processors;
    config.normalized_utilization = shape.normalized_utilization;
    sets.push_back(generate(rng, config));
  }
  return sets;
}

const std::vector<Shape>& shapes() {
  static const std::vector<Shape> kShapes{
      {16, 64, 0.94}, {16, 40, 0.99}, {4, 16, 0.6},  {4, 9, 0.97},
      {64, 256, 0.9}, {64, 200, 0.98}, {1, 5, 0.7}, {1, 6, 0.99},
      {16, 48, 0.97}, {16, 64, 0.75}};
  return kShapes;
}

void expect_same(const Assignment& fresh, const Assignment& reused,
                 const std::string& where) {
  EXPECT_EQ(fresh.success, reused.success) << where;
  EXPECT_EQ(fresh.unassigned, reused.unassigned) << where;
  ASSERT_EQ(fresh.processors.size(), reused.processors.size()) << where;
  for (std::size_t q = 0; q < fresh.processors.size(); ++q) {
    EXPECT_EQ(fresh.processors[q].subtasks, reused.processors[q].subtasks)
        << where << ", processor " << q;
  }
}

TEST(PartitionWorkspace, ReusedProcessorsDecideLikeAFreshThread) {
  const auto partitioners = workspace_partitioners();
  const std::vector<TaskSet> sets = sequence_sets(shapes());

  // One thread runs the whole sequence, every partitioner per set, so each
  // run inherits the workspace of a different partitioner and shape.
  std::vector<Assignment> reused;
  std::thread sequence([&] {
    for (std::size_t s = 0; s < sets.size(); ++s) {
      for (const auto& partitioner : partitioners) {
        reused.push_back(partitioner->partition(sets[s], shapes()[s].processors));
      }
    }
  });
  sequence.join();

  std::size_t failures = 0;
  std::size_t next = 0;
  for (std::size_t s = 0; s < sets.size(); ++s) {
    for (const auto& partitioner : partitioners) {
      Assignment fresh;
      std::thread once([&] {
        fresh = partitioner->partition(sets[s], shapes()[s].processors);
      });
      once.join();
      failures += fresh.success ? 0 : 1;
      expect_same(fresh, reused[next++],
                  partitioner->name() + " on set " + std::to_string(s));
    }
  }
  EXPECT_GT(failures, 0U) << "the sequence should include failed partitions";
  EXPECT_LT(failures, reused.size()) << "and accepted ones";
}

TEST(PartitionWorkspace, HandsOutExactlyMClearedProcessors) {
  {
    const PartitionWorkspace large(8);
    for (ProcessorState& processor : large.processors()) {
      processor.add(Subtask{0, 1, 0, 5, 10, 10, SubtaskKind::kWhole});
      processor.mark_full();
    }
  }
  const PartitionWorkspace small(3);
  ASSERT_EQ(small.processors().size(), 3U);
  for (const ProcessorState& processor : small.processors()) {
    EXPECT_TRUE(processor.empty());
    EXPECT_FALSE(processor.full());
    EXPECT_EQ(processor.utilization(), 0.0);
  }
}

TEST(PartitionWorkspace, IsReleasedWhenARunThrows) {
  EXPECT_THROW(
      {
        const PartitionWorkspace workspace(4);
        throw std::runtime_error("partitioner failed mid-run");
      },
      std::runtime_error);
  // With the in-use flag left set, this would trip the reentrancy
  // assertion in a build with assertions on.
  const PartitionWorkspace again(4);
  EXPECT_EQ(again.processors().size(), 4U);
}

TEST(PartitionWorkspaceDeathTest, NestedUseAsserts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the reentrancy guard is an assertion";
#else
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const PartitionWorkspace outer(2);
        const PartitionWorkspace inner(2);
      },
      "not reentrant");
#endif
}

Subtask whole(std::size_t priority, Time wcet, Time period) {
  return Subtask{priority, static_cast<TaskId>(priority), 0, wcet,
                 period,   period,                        SubtaskKind::kWhole};
}

/// Drives `used` (cleared) and a fresh processor through the same ops and
/// checks that every observable answer agrees, the kernel mirror included.
/// The first op is whole(3, 30, 100), added without a probe unless
/// `probe_first`; then come probes that pass and fail.
void expect_behaves_like_fresh(ProcessorState& used, bool probe_first) {
  ProcessorState fresh;
  EXPECT_TRUE(used.empty());
  EXPECT_FALSE(used.full());
  EXPECT_EQ(used.utilization(), 0.0);
  const std::vector<Subtask> ops{whole(3, 30, 100), whole(1, 20, 50),
                                 whole(2, 10, 80), whole(4, 40, 200),
                                 whole(5, 60, 400)};
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const bool blind = k == 0 && !probe_first;
    const bool fits_fresh = blind || fresh.fits(ops[k]);
    const bool fits_used = blind || used.fits(ops[k]);
    ASSERT_EQ(fits_fresh, fits_used) << k;
    if (fits_fresh) {
      fresh.add(ops[k]);
      used.add(ops[k]);
    }
    ASSERT_EQ(fresh.subtasks().size(), used.subtasks().size());
    const ProcessorRta exact = analyze_processor(used.subtasks());
    const auto responses = used.kernel_view().responses;
    for (std::size_t i = 0; i < used.subtasks().size(); ++i) {
      const Time expected =
          exact.response[i] <= used.subtasks()[i].deadline ? exact.response[i]
                                                           : kTimeInfinity;
      EXPECT_EQ(responses[i], expected) << "op " << k << ", entry " << i;
      EXPECT_EQ(fresh.kernel_view().responses[i], expected);
    }
    EXPECT_TRUE(used.kernel_view().soa.mirrors(used.subtasks())) << k;
    EXPECT_EQ(used.full(), fresh.full());
    EXPECT_EQ(used.utilization(), fresh.utilization());
  }
}

TEST(ClearedProcessor, BehavesLikeAFreshOneAfterAKeptProbe) {
  ProcessorState used;
  used.add(whole(0, 50, 100));
  used.add(whole(6, 10, 1000));
  // A passing probe of the first op's subtask is kept when clear() runs:
  // its response (80 under this set) must not reach the cleared
  // processor when that subtask is added there without a probe.
  ASSERT_TRUE(used.fits(whole(3, 30, 100)));
  used.mark_full();
  used.clear();
  expect_behaves_like_fresh(used, /*probe_first=*/false);
}

TEST(ClearedProcessor, BehavesLikeAFreshOneAfterAWarmLargerSet) {
  ProcessorState used;
  for (std::size_t rank = 0; rank < 12; ++rank) {
    const Subtask s = whole(rank, 3, 100 + 10 * static_cast<Time>(rank));
    ASSERT_TRUE(used.fits(s));
    used.add(s);
  }
  (void)used.response_time_of(11);  // every entry warm
  used.mark_full();
  used.clear();
  // A probe on the empty processor, then add() commits it: that path
  // asserts the warm marker matches the (empty) hosted set.
  expect_behaves_like_fresh(used, /*probe_first=*/true);
}

TEST(ClearedProcessor, BehavesLikeAFreshOneAfterAKnownMiss) {
  ProcessorState used;
  used.add(whole(0, 80, 100));
  used.add(whole(1, 50, 100));  // forced past admission: a known miss
  ASSERT_EQ(used.kernel_view().responses[1], kTimeInfinity);
  used.clear();
  expect_behaves_like_fresh(used, /*probe_first=*/false);
}

}  // namespace
}  // namespace rmts
