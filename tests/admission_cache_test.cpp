// ProcessorState admission cache: the memoized/seeded fast path must be
// observationally identical to from-scratch analyze_processor on randomized
// assignment traces, including hosts made unschedulable by non-RTA
// admission (the SPA path adds on a utilization threshold only).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/trace.hpp"
#include "online/session.hpp"
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
  // A known miss is read through kernel_view(): response_time_of() serves
  // admitted subtasks only and asserts on a miss.
  EXPECT_EQ(processor.kernel_view().responses[1], kTimeInfinity);

  processor.remove(0);
  const ProcessorRta fresh = analyze_processor(processor.subtasks());
  ASSERT_TRUE(fresh.schedulable);
  EXPECT_EQ(processor.response_time_of(0), fresh.response[0]);
  const Subtask probe{0, 202, 0, 25, 100, 100, SubtaskKind::kWhole};
  EXPECT_EQ(processor.fits(probe), oracle_fits(processor, probe));
  EXPECT_TRUE(processor.fits(probe));
}

Subtask make_subtask(std::size_t priority, Time wcet, Time period,
                     Time deadline) {
  return Subtask{priority,  static_cast<TaskId>(priority), 0, wcet,
                 period,    deadline,                      SubtaskKind::kWhole};
}

/// Trace counter delta between two snapshots.
std::uint64_t delta(const trace::Snapshot& before, const trace::Snapshot& after,
                    trace::Counter counter) {
  return after.counter(counter) - before.counter(counter);
}

TEST(UtilizationCheck, RejectsTheEleventhOfTenTenths) {
  // Ten (1, 10) subtasks are exactly U = 1 and RM-schedulable, though
  // their double sum falls just short of 1; an eleventh must not fit.
  ProcessorState processor;
  for (std::size_t rank = 0; rank < 10; ++rank) {
    const Subtask s = make_subtask(rank, 1, 10, 10);
    ASSERT_TRUE(processor.fits(s)) << rank;
    processor.add(s);
  }
  EXPECT_EQ(processor.utilization(), 0.9999999999999999);
  const Subtask eleventh = make_subtask(10, 1, 10, 10);
  EXPECT_FALSE(processor.fits(eleventh));
  EXPECT_FALSE(oracle_fits(processor, eleventh));
}

TEST(UtilizationCheck, AdmitsAnExactlyFullSetWhoseSumRoundsAboveOne) {
  // 1,000 x (1, 1000) is exactly U = 1 and RM-schedulable (the last one
  // responds at 1000), yet the double sum with the last one added is
  // 1.0000000000000007: the check needs its slack above 1.
  ProcessorState processor;
  for (std::size_t rank = 0; rank < 999; ++rank) {
    processor.add(make_subtask(rank, 1, 1000, 1000));
  }
  const Subtask last = make_subtask(999, 1, 1000, 1000);
  EXPECT_EQ(processor.utilization() + last.utilization(), 1.0000000000000007);
  EXPECT_TRUE(oracle_fits(processor, last));
  EXPECT_TRUE(processor.fits(last));
  processor.add(last);
  EXPECT_EQ(processor.response_time_of(999), 1000);
}

TEST(UtilizationCheck, SessionAdmitsTheThousandthTaskAndRejectsTheNext) {
  online::SessionConfig config;
  config.processors = 1;
  config.max_resident = 2000;
  online::PartitionSession session(config);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(session.admit(1, 1000).admitted) << "task " << i;
  }
  EXPECT_FALSE(session.admit(1, 1000).admitted);
  EXPECT_EQ(session.stats().resident_tasks, 1000u);
  EXPECT_EQ(session.check_invariants(), "");
}

TEST(UtilizationCheck, RejectsBeforeWarmingTheSuffixARemovalLeft) {
  if (!trace::compiled_in()) GTEST_SKIP() << "tracing compiled out";
  trace::set_enabled(true);
  ProcessorState processor;
  for (std::size_t rank = 0; rank < 6; ++rank) {
    processor.add(make_subtask(rank, 10 + static_cast<Time>(rank), 100, 100));
  }
  ASSERT_TRUE(processor.fits(make_subtask(6, 1, 100, 100)));  // warms all
  processor.remove(0);  // entries 0..4 are now an invalid suffix
  // U = 0.65 hosted + 0.5: over 1, so no analysis can be needed.
  const Subtask heavy = make_subtask(7, 50, 100, 100);
  const trace::Snapshot before = trace::snapshot();
  EXPECT_FALSE(processor.fits(heavy));
  const trace::Snapshot after = trace::snapshot();
  EXPECT_EQ(delta(before, after, trace::Counter::kAdmissionUtilizationRejects),
            1u);
  EXPECT_EQ(delta(before, after, trace::Counter::kAdmissionCacheMiss), 0u);
  EXPECT_EQ(delta(before, after, trace::Counter::kAdmissionRtaIterations), 0u);
  EXPECT_EQ(delta(before, after, trace::Counter::kAdmissionSeededRta), 0u);
  EXPECT_FALSE(oracle_fits(processor, heavy));
  // The suffix stays lazy and re-warms exactly on the next query.
  const ProcessorRta fresh = kernel_analyze(processor.subtasks());
  ASSERT_TRUE(fresh.schedulable);
  for (std::size_t i = 0; i < processor.subtasks().size(); ++i) {
    EXPECT_EQ(processor.response_time_of(i), fresh.response[i]) << i;
  }
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
  // another subtask, a later failing probe (which overwrites the scratch
  // from the bottom up), a remove() and a copy-assignment (both change the
  // hosted set under the record).  Hosted subtasks take even ranks; A takes an
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
    // C: the smallest top-priority wcet that no longer fits.  Its probe
    // checks the hosted set lowest priority first and overwrites the
    // scratch of every subtask below the one that binds before it fails,
    // so the record must not survive it.  (When the lowest subtask binds,
    // or the total utilization passes 1 and no probe runs, nothing is
    // overwritten; other seeds cover the case.)
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

/// Per-prefix scalar RTA of hosted subtask i, kTimeInfinity for a miss.
Time scalar_response(std::span<const Subtask> hosted, std::size_t i) {
  const RtaOutcome out =
      response_time(hosted[i].wcet, hosted[i].deadline, hosted.first(i));
  return out.schedulable ? out.response : kTimeInfinity;
}

/// Every cached response equals per-prefix scalar RTA, which
/// kernel_analyze also reproduces up to its first miss.  Schedulable
/// entries are read through response_time_of() (which warms lazily up to
/// the index, and is only for admitted subtasks), then every entry,
/// misses included, through kernel_view().
void expect_exact_responses(const ProcessorState& processor,
                            const std::string& step) {
  const auto hosted = processor.subtasks();
  const ProcessorRta fresh = kernel_analyze(hosted);
  for (std::size_t i = 0; i < hosted.size(); ++i) {
    const Time expected = scalar_response(hosted, i);
    if (i < fresh.first_miss) {
      ASSERT_EQ(fresh.response[i], expected) << step << ", index " << i;
    }
    if (expected != kTimeInfinity) {
      ASSERT_EQ(processor.response_time_of(i), expected)
          << step << ", index " << i;
    }
  }
  const auto cached = processor.kernel_view().responses;
  for (std::size_t i = 0; i < hosted.size(); ++i) {
    ASSERT_EQ(cached[i], scalar_response(hosted, i)) << step << ", index " << i;
  }
}

TEST(AdmissionCache, PredecessorSeededRewarmIsExact) {
  // warm() seeds entry i with max(stale, R_{i-1} + C_i).  Removals at the
  // front, in the middle and at the end, and adds that do not commit a
  // probe, leave invalid suffixes whose re-warm must land on the exact
  // least fixed points -- including where the bound is tight
  // (R_i = R_{i-1} + C_i = D_i, so a seed one tick higher reads a miss).
  // Every subtask is added past admission, so known misses get cached.
  {
    // Kernel regime.  X overloads B (R_B = 7 > 5) and M overloads N
    // (R_N = 13 > 10); without them both are tight at their deadlines.
    const Subtask x = make_subtask(0, 1, 4, 4);
    const Subtask a = make_subtask(1, 2, 10, 10);
    const Subtask b = make_subtask(2, 3, 20, 5);
    const Subtask m = make_subtask(3, 1, 40, 40);
    const Subtask n = make_subtask(4, 5, 50, 10);
    const Subtask z = make_subtask(5, 1, 100, 100);
    ProcessorState processor;
    for (const Subtask& s : {n, a, z, x, m, b}) {
      processor.add(s);
      expect_exact_responses(processor, "add " + std::to_string(s.priority));
    }
    EXPECT_EQ(processor.kernel_view().responses[2], kTimeInfinity);  // B
    EXPECT_EQ(processor.kernel_view().responses[4], kTimeInfinity);  // N
    processor.remove(0);  // X: a b m n z
    expect_exact_responses(processor, "remove(0)");
    EXPECT_EQ(processor.response_time_of(1), b.deadline);
    EXPECT_EQ(processor.response_time_of(1),
              processor.response_time_of(0) + b.wcet);
    processor.remove(2);  // M, in the middle: a b n z
    expect_exact_responses(processor, "remove(middle)");
    EXPECT_EQ(processor.response_time_of(2), n.deadline);
    EXPECT_EQ(processor.response_time_of(2),
              processor.response_time_of(1) + n.wcet);
    processor.remove(3);  // Z, at the end: a b n
    expect_exact_responses(processor, "remove(end)");
    processor.add(m);  // N misses again: a b m n
    expect_exact_responses(processor, "add M again");
    processor.add(x);  // B misses again: x a b m n
    expect_exact_responses(processor, "add X again");
  }
  {
    // Scalar regime: periods and deadlines past 2^31, deadlines near 2^62.
    // Without Q, H1 is tight at its deadline, and H1's response plus H2's
    // wcet passes int64, a certain miss the saturating bound decides.
    constexpr Time k62 = Time{1} << 62;
    constexpr Time k61 = Time{1} << 61;
    const Subtask q = make_subtask(0, 1, Time{1} << 40, Time{1} << 40);
    const Subtask h0 =
        make_subtask(1, k62, kTimeInfinity, k62 + (Time{1} << 23));
    const Subtask h1 = make_subtask(2, k61, kTimeInfinity, k62 + k61);
    const Subtask h2 = make_subtask(3, k62, kTimeInfinity, kTimeInfinity - 1);
    ProcessorState processor;
    for (const Subtask& s : {h2, h0, q, h1}) {
      processor.add(s);
      expect_exact_responses(processor, "add " + std::to_string(s.priority));
    }
    EXPECT_EQ(processor.kernel_view().responses[2], kTimeInfinity);  // H1
    processor.remove(0);  // Q: h0 h1 h2
    expect_exact_responses(processor, "remove(0), huge");
    EXPECT_EQ(processor.response_time_of(0), k62);
    EXPECT_EQ(processor.response_time_of(1), h1.deadline);
    EXPECT_EQ(processor.kernel_view().responses[2], kTimeInfinity);  // H2
    processor.add(q);     // q h0 h1 h2
    processor.remove(2);  // H1, in the middle: q h0 h2
    expect_exact_responses(processor, "remove(middle), huge");
    processor.remove(2);  // H2, at the end: q h0
    expect_exact_responses(processor, "remove(end), huge");
    EXPECT_EQ(processor.response_time_of(1), k62 + (Time{1} << 22) + 1);
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
