// Golden verdict digests: one FNV-1a hash over every subtask RM-TS places
// for a pool of admit-large-shaped task sets, and one over a seeded
// PartitionSession op trace (each admit/depart outcome plus periodic
// snapshots of every hosted subtask).  The expected values were recorded
// from the scheduling-point MaxSplit this library shipped before its
// binary search; a changed digest means some split body, placement or
// verdict moved.  Update a constant only for an intended verdict change,
// and say which one in the commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "bounds/harmonic.hpp"
#include "common/rng.hpp"
#include "online/session.hpp"
#include "partition/rmts.hpp"
#include "workload/generators.hpp"

namespace rmts {
namespace {

class Digest {
 public:
  void add(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const Subtask& s) noexcept {
    add(s.priority);
    add(s.task_id);
    add(static_cast<std::uint64_t>(s.part));
    add(static_cast<std::uint64_t>(s.wcet));
    add(static_cast<std::uint64_t>(s.period));
    add(static_cast<std::uint64_t>(s.deadline));
    add(static_cast<std::uint64_t>(s.kind));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ULL};
};

// 256 sets shaped like the admit-large benchmark pool: N=64 tasks on M=16
// processors, log-uniform periods in [10^3, 10^6], U_M evenly spread over
// the acceptance cliff [0.90, 0.98], RM-TS with the harmonic-chain bound.
TEST(VerdictDigest, RmtsAdmitLargeShapedPool) {
  constexpr std::size_t kSets = 256;
  WorkloadConfig config;
  config.tasks = 64;
  config.processors = 16;
  const Rmts rmts(std::make_shared<HarmonicChainBound>());
  const Rng rng(1);
  Digest digest;
  std::size_t accepted = 0;
  std::size_t splits = 0;
  for (std::size_t i = 0; i < kSets; ++i) {
    config.normalized_utilization =
        0.90 + 0.08 * (static_cast<double>(i) + 0.5) / static_cast<double>(kSets);
    Rng sample = rng.fork(i);
    const TaskSet tasks = generate(sample, config);
    const Assignment assignment = rmts.partition(tasks, config.processors);
    digest.add(assignment.success ? 1U : 0U);
    for (const ProcessorAssignment& processor : assignment.processors) {
      digest.add(processor.subtasks.size());
      for (const Subtask& s : processor.subtasks) digest.add(s);
    }
    for (const TaskId id : assignment.unassigned) digest.add(id);
    accepted += assignment.success ? 1U : 0U;
    splits += assignment.split_task_count();
  }
  // Both verdicts occur and MaxSplit runs, or the digest proves little.
  EXPECT_GT(accepted, kSets / 8);
  EXPECT_LT(accepted, kSets);
  EXPECT_GT(splits, kSets);
  EXPECT_EQ(digest.value(), 0xc38df929da971923ULL)
      << std::hex << digest.value();
}

// A session-churn-shaped trace: M=8, filled until 16 admits in a row are
// rejected, then 40 % departs of a random live ticket and 60 % admits.
TEST(VerdictDigest, SessionOpTrace) {
  online::SessionConfig config;
  config.processors = 8;
  online::PartitionSession session(config);
  Rng rng(2);
  Digest digest;
  std::vector<online::Ticket> live;
  std::size_t split_admits = 0;

  const auto snapshot = [&] {
    for (const ProcessorState& processor : session.processors()) {
      digest.add(processor.subtasks().size());
      for (const Subtask& s : processor.subtasks()) digest.add(s);
    }
  };
  const auto admit = [&] {
    const Time period = rng.log_uniform_time(1'000, 1'000'000);
    const double share = rng.uniform(0.02, 0.45);
    const auto wcet = std::max<Time>(
        1, static_cast<Time>(share * static_cast<double>(period)));
    const online::AdmitResult result = session.admit(wcet, period);
    digest.add(result.admitted ? 1U : 0U);
    digest.add(result.ticket);
    digest.add(result.parts);
    digest.add(result.reason.size());
    if (result.admitted) live.push_back(result.ticket);
    if (result.parts > 1) ++split_admits;
    return result.admitted;
  };

  for (int rejected = 0; rejected < 16;) rejected = admit() ? 0 : rejected + 1;
  snapshot();
  for (int op = 0; op < 20'000; ++op) {
    if (!live.empty() && rng.uniform() < 0.4) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      digest.add(session.depart(live[k]) ? 1U : 0U);
      live[k] = live.back();
      live.pop_back();
    } else {
      admit();
    }
    if (op % 512 == 511) snapshot();
  }
  snapshot();
  ASSERT_EQ(session.check_invariants(), "");
  EXPECT_GT(split_admits, 100U);
  EXPECT_EQ(digest.value(), 0x58df79ea70386683ULL)
      << std::hex << digest.value();
}

}  // namespace
}  // namespace rmts
