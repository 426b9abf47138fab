// ProcessorState admission cache: the memoized/seeded fast path must be
// observationally identical to from-scratch analyze_processor on randomized
// assignment traces, including hosts made unschedulable by non-RTA
// admission (the SPA path adds on a utilization threshold only).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "oracle/max_split_points.hpp"
#include "partition/max_split.hpp"
#include "partition/processor_state.hpp"
#include "rta/rta.hpp"
#include "rta/rta_kernel.hpp"

namespace rmts {
namespace {

/// Random subtask with the given unique priority rank; deadline <= period.
Subtask random_subtask(Rng& rng, std::size_t priority, bool heavy) {
  const Time period = rng.uniform_int(20, 2000);
  const Time max_wcet = heavy ? period : std::max<Time>(1, period / 6);
  const Time wcet = rng.uniform_int(1, max_wcet);
  const Time deadline = rng.uniform_int(wcet, period);
  return Subtask{priority,  static_cast<TaskId>(priority), 0, wcet,
                 period,    deadline,                      SubtaskKind::kWhole};
}

/// From-scratch oracle with the documented fits() semantics (the seed
/// implementation verbatim): the candidate under its higher-priority
/// prefix, then every lower-priority hosted subtask with materialized
/// interferer vectors -- no caching, no seeding.  Higher-priority hosted
/// subtasks are not re-examined (their response cannot change).
bool oracle_fits(const ProcessorState& processor, const Subtask& candidate) {
  const auto hosted = processor.subtasks();
  const auto pos_it = std::lower_bound(
      hosted.begin(), hosted.end(), candidate,
      [](const Subtask& a, const Subtask& b) { return a.priority < b.priority; });
  const auto pos = static_cast<std::size_t>(pos_it - hosted.begin());
  if (!response_time(candidate.wcet, candidate.deadline, hosted.first(pos))
           .schedulable) {
    return false;
  }
  std::vector<Subtask> interferers(hosted.begin(), pos_it);
  interferers.push_back(candidate);
  for (std::size_t i = pos; i < hosted.size(); ++i) {
    if (!response_time(hosted[i].wcet, hosted[i].deadline, interferers)
             .schedulable) {
      return false;
    }
    interferers.push_back(hosted[i]);
  }
  return true;
}

TEST(AdmissionCache, RandomizedTracesMatchFromScratchAnalysis) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    ProcessorState processor;
    std::vector<std::size_t> priorities(64);
    for (std::size_t i = 0; i < priorities.size(); ++i) priorities[i] = i;
    // Random unique priority per step, in random arrival order.
    for (std::size_t i = priorities.size(); i-- > 1;) {
      std::swap(priorities[i],
                priorities[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i)))]);
    }
    for (std::size_t step = 0; step < 24; ++step) {
      const Subtask candidate = random_subtask(rng, priorities[step], false);
      const bool cached = processor.fits(candidate);
      ASSERT_EQ(cached, oracle_fits(processor, candidate))
          << "seed " << seed << " step " << step;
      if (cached) processor.add(candidate);
    }
    // Cached per-subtask responses equal the from-scratch analysis.
    const ProcessorRta fresh = analyze_processor(processor.subtasks());
    ASSERT_TRUE(fresh.schedulable);
    for (std::size_t i = 0; i < processor.subtasks().size(); ++i) {
      EXPECT_EQ(processor.response_time_of(i), fresh.response[i]);
    }
  }
}

TEST(AdmissionCache, MatchesOracleOnHostsAddedPastAdmission) {
  // SPA-style traces: subtasks land on utilization grounds alone, so the
  // hosted set can be RTA-unschedulable; fits() must keep agreeing with
  // the oracle (always false once the host is broken).
  for (std::uint64_t seed = 100; seed < 130; ++seed) {
    Rng rng(seed);
    ProcessorState processor;
    for (std::size_t step = 0; step < 10; ++step) {
      const Subtask incoming = random_subtask(rng, step * 2, true);
      const bool cached = processor.fits(incoming);
      ASSERT_EQ(cached, oracle_fits(processor, incoming))
          << "seed " << seed << " step " << step;
      processor.add(incoming);  // added regardless, like spa_assign
      const Subtask probe = random_subtask(rng, step * 2 + 1, false);
      ASSERT_EQ(processor.fits(probe), oracle_fits(processor, probe))
          << "seed " << seed << " probe at step " << step;
    }
  }
}

TEST(AdmissionCache, InterleavedAddRemoveMatchesFromScratchAnalysis) {
  // The online session's churn shape: adds and removes interleave on a
  // long-lived processor, with fits() probes and re-analysis between
  // mutations.  Removal re-seeds the invalidated suffix from wcets (a
  // stale post-removal value would be an UPPER bound -- unsound as a
  // seed), so the cached path must keep agreeing with the from-scratch
  // oracle through arbitrary interleavings.
  for (std::uint64_t seed = 300; seed < 340; ++seed) {
    Rng rng(seed);
    ProcessorState processor;
    // Hosted priorities draw from 1..48; 0 is reserved for split
    // prototypes so max_admissible_wcet probes stay top-priority.
    std::vector<std::size_t> free_priorities;
    for (std::size_t p = 1; p <= 48; ++p) free_priorities.push_back(p);

    for (std::size_t step = 0; step < 48; ++step) {
      const bool do_remove =
          !processor.subtasks().empty() && rng.uniform_int(0, 2) == 0;
      if (do_remove) {
        const auto index = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(processor.subtasks().size()) - 1));
        free_priorities.push_back(processor.subtasks()[index].priority);
        processor.remove(index);
      } else {
        const auto slot = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(free_priorities.size()) - 1));
        const Subtask incoming = random_subtask(
            rng, free_priorities[slot], rng.uniform_int(0, 3) == 0);
        const bool cached = processor.fits(incoming);
        ASSERT_EQ(cached, oracle_fits(processor, incoming))
            << "seed " << seed << " step " << step;
        if (cached) {
          processor.add(incoming);
          free_priorities[slot] = free_priorities.back();
          free_priorities.pop_back();
        }
      }

      // A probe at a random (possibly hosted-adjacent) priority must
      // agree with the oracle on the mutated set.
      const Subtask probe =
          random_subtask(rng, free_priorities[static_cast<std::size_t>(
                                  rng.uniform_int(0,
                                                  static_cast<std::int64_t>(
                                                      free_priorities.size()) -
                                                      1))],
                         false);
      ASSERT_EQ(processor.fits(probe), oracle_fits(processor, probe))
          << "seed " << seed << " step " << step;

      // Cached responses stay exact after every interleaving step.
      const ProcessorRta fresh = analyze_processor(processor.subtasks());
      ASSERT_TRUE(fresh.schedulable) << "seed " << seed << " step " << step;
      for (std::size_t i = 0; i < processor.subtasks().size(); ++i) {
        ASSERT_EQ(processor.response_time_of(i), fresh.response[i])
            << "seed " << seed << " step " << step << " index " << i;
      }

      // MaxSplit seeds its analyses from the re-seeded cache, so it must
      // keep matching the cache-free scheduling-point oracle across
      // removals too.
      if (step % 8 == 7) {
        Subtask prototype = random_subtask(rng, 0, true);
        EXPECT_EQ(max_admissible_wcet(processor, prototype),
                  oracle::max_admissible_wcet(processor.subtasks(), prototype))
            << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST(AdmissionCache, RemovalFlipsCachedVerdictsBackToFits) {
  // Deterministic regression for the cache-direction flip: with the
  // blocker hosted, the candidate is rejected (and the verdict cached as
  // part of the warmed responses); after remove() the same candidate
  // must fit -- a stale cached miss would wrongly keep rejecting it.
  ProcessorState processor;
  const Subtask blocker{0, 100, 0, 60, 100, 100, SubtaskKind::kWhole};
  const Subtask hosted{2, 102, 0, 30, 100, 100, SubtaskKind::kWhole};
  ASSERT_TRUE(processor.fits(blocker));
  processor.add(blocker);
  ASSERT_TRUE(processor.fits(hosted));
  processor.add(hosted);

  // 60 + 30 + 30 = 120 > 100: the hosted subtask would miss.
  const Subtask candidate{1, 101, 0, 30, 100, 100, SubtaskKind::kWhole};
  ASSERT_FALSE(processor.fits(candidate));
  ASSERT_EQ(processor.response_time_of(1), 90);  // 60 + 30, warm cache

  processor.remove(0);  // the blocker departs
  EXPECT_TRUE(processor.fits(candidate)) << "stale cached miss survived";
  EXPECT_EQ(processor.response_time_of(0), 30);
  processor.add(candidate);
  const ProcessorRta fresh = analyze_processor(processor.subtasks());
  ASSERT_TRUE(fresh.schedulable);
  EXPECT_EQ(processor.response_time_of(1), fresh.response[1]);
}

TEST(AdmissionCache, RemovalRestoresSchedulabilityOfForcedHosts) {
  // SPA-style force-adds can cache kTimeInfinity ("known miss") for a
  // hosted subtask; removing the interferer that caused the miss must
  // re-seed the entry rather than keep the infinity.
  ProcessorState processor;
  const Subtask heavy{0, 200, 0, 80, 100, 100, SubtaskKind::kWhole};
  const Subtask victim{1, 201, 0, 50, 100, 100, SubtaskKind::kWhole};
  processor.add(heavy);
  processor.add(victim);  // added past admission: 80 + 50 > 100
  ASSERT_FALSE(analyze_processor(processor.subtasks()).schedulable);
  EXPECT_EQ(processor.response_time_of(1), kTimeInfinity);

  processor.remove(0);
  const ProcessorRta fresh = analyze_processor(processor.subtasks());
  ASSERT_TRUE(fresh.schedulable);
  EXPECT_EQ(processor.response_time_of(0), fresh.response[0]);
  const Subtask probe{0, 202, 0, 25, 100, 100, SubtaskKind::kWhole};
  EXPECT_EQ(processor.fits(probe), oracle_fits(processor, probe));
  EXPECT_TRUE(processor.fits(probe));
}

/// Every cached response equals a from-scratch kernel_analyze of the
/// hosted set.
void expect_exact_cache(const ProcessorState& processor, const char* sequence,
                        std::uint64_t seed) {
  const ProcessorRta fresh = kernel_analyze(processor.subtasks());
  ASSERT_TRUE(fresh.schedulable) << sequence << ", seed " << seed;
  for (std::size_t i = 0; i < processor.subtasks().size(); ++i) {
    ASSERT_EQ(processor.response_time_of(i), fresh.response[i])
        << sequence << ", seed " << seed << ", index " << i;
  }
}

TEST(AdmissionCache, AddCommitsOnlyTheLastPassingProbeOnTheSameSet) {
  // A passing fits() keeps its candidate-aware responses for add() of
  // exactly that candidate.  Every other path must drop them: an add() of
  // another subtask, a later failing probe (which overwrites part of the
  // scratch), a remove() and a copy-assignment (both change the hosted
  // set under the record).  Hosted subtasks take even ranks; A takes an
  // odd rank, C the top one.
  for (std::uint64_t seed = 500; seed < 580; ++seed) {
    Rng rng(seed);
    ProcessorState base;
    for (std::size_t rank = 2; rank <= 24; rank += 2) {
      const Subtask incoming = random_subtask(rng, rank, false);
      if (oracle_fits(base, incoming)) base.add(incoming);
    }
    const std::size_t hosted = base.subtasks().size();
    if (hosted == 0) continue;
    Subtask a = random_subtask(
        rng, 2 * static_cast<std::size_t>(rng.uniform_int(0, 12)) + 1, false);
    while (a.wcet > 2 && !oracle_fits(base, a)) a.wcet /= 2;
    if (a.wcet < 2 || !oracle_fits(base, a)) continue;
    // C: the smallest top-priority wcet that no longer fits, so its probe
    // gets past some of the hosted set before it fails.
    Subtask c = random_subtask(rng, 0, true);
    c.wcet = c.deadline;
    c.wcet = max_admissible_wcet(base, c) + 1;
    const auto removed = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosted) - 1));

    {  // fits(A) passes, then add(B) with B != A.
      ProcessorState processor = base;
      ASSERT_TRUE(processor.fits(a));
      Subtask b = a;
      b.wcet = a.wcet - 1;
      processor.add(b);
      expect_exact_cache(processor, "fits(A), add(B)", seed);
    }
    {  // fits(A) passes, then a failing fits(C), then add(A).
      ProcessorState processor = base;
      ASSERT_TRUE(processor.fits(a));
      ASSERT_FALSE(processor.fits(c));
      processor.add(a);
      expect_exact_cache(processor, "fits(A), failing fits(C), add(A)", seed);
    }
    {  // fits(A) passes, then remove(), then add(A).
      ProcessorState processor = base;
      ASSERT_TRUE(processor.fits(a));
      processor.remove(removed);
      processor.add(a);
      expect_exact_cache(processor, "fits(A), remove(), add(A)", seed);
    }
    {  // fits(A) passes, then a copy of another hosted set, then add(A).
      ProcessorState other = base;
      other.remove(removed);
      ProcessorState processor = base;
      ASSERT_TRUE(processor.fits(a));
      processor = other;
      processor.add(a);
      expect_exact_cache(processor, "fits(A), copy, add(A)", seed);
    }
    {  // The commit itself: fits(A) passes, then add(A).
      ProcessorState processor = base;
      ASSERT_TRUE(processor.fits(a));
      processor.add(a);
      expect_exact_cache(processor, "fits(A), add(A)", seed);
    }
  }
}

TEST(AdmissionCache, MaxSplitMethodsAgreeOnWarmCache) {
  for (std::uint64_t seed = 200; seed < 230; ++seed) {
    Rng rng(seed);
    ProcessorState processor;
    for (std::size_t step = 0; step < 12; ++step) {
      const Subtask incoming = random_subtask(rng, step + 10, false);
      if (processor.fits(incoming)) processor.add(incoming);
    }
    // Top-priority prototype, as produced by assign_or_split.
    Subtask prototype = random_subtask(rng, 0, true);
    const Time binary = max_admissible_wcet(processor, prototype);
    EXPECT_EQ(binary, oracle::max_admissible_wcet(processor.subtasks(), prototype))
        << "seed " << seed;
    // A second query on the now-warm response cache must agree.
    EXPECT_EQ(binary, max_admissible_wcet(processor, prototype));
    // The result is a true maximum: it fits, one more tick does not.
    if (binary > 0 && binary < prototype.wcet) {
      Subtask probe = prototype;
      probe.wcet = binary;
      EXPECT_TRUE(processor.fits(probe));
      probe.wcet = binary + 1;
      EXPECT_FALSE(processor.fits(probe));
    }
  }
}

}  // namespace
}  // namespace rmts
