// SoA RTA kernel: mirror consistency under every mutation path
// (assign/insert/ProcessorState add/copy/assign), bit-identity of the
// kernel twins against the scalar RTA functions -- including directed
// 2^31 no-overflow-boundary cases that force the checked fallback -- and
// exactness of the division-free floor quotient at its hardest inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/checked_math.hpp"
#include "common/rng.hpp"
#include "oracle/max_split_points.hpp"
#include "partition/processor_state.hpp"
#include "rta/rta.hpp"
#include "rta/rta_kernel.hpp"
#include "tasks/subtask.hpp"

namespace rmts {
namespace {

constexpr Time kBoundary = Time{1} << 31;  // PR1 no-overflow fast bound.

Subtask make_subtask(std::size_t priority, Time wcet, Time period,
                     Time deadline) {
  return Subtask{priority,  static_cast<TaskId>(priority), 0, wcet,
                 period,    deadline,                      SubtaskKind::kWhole};
}

/// Random subtask with the given priority rank; deadline <= period.  With
/// `huge`, periods/wcets straddle the 2^31 kernel-eligibility boundary.
Subtask random_subtask(Rng& rng, std::size_t priority, bool huge) {
  Time period;
  Time wcet;
  if (huge && rng.uniform_int(0, 1) == 0) {
    period = std::max<Time>(1, kBoundary + rng.uniform_int(-3, 3));
    wcet = rng.uniform_int(1, period);
  } else {
    period = rng.uniform_int(2, 5000);
    wcet = rng.uniform_int(1, std::max<Time>(1, period / 3));
  }
  const Time deadline = rng.uniform_int(wcet, period);
  return make_subtask(priority, wcet, period, deadline);
}

std::vector<Subtask> random_hosted(Rng& rng, std::size_t n, bool huge) {
  std::vector<Subtask> hosted;
  hosted.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    hosted.push_back(random_subtask(rng, i, huge));
  }
  return hosted;
}

// ------------------------------------------------------- floor_div_exact --

TEST(FloorDivExact, MatchesIntegerDivisionAtAdversarialPoints) {
  // The magic quotient (r * ceil(2^shift/t)) >> shift is provably exact
  // for every r below 2^31 (proof at div_magic).  Stress the boundary
  // layers anyway: r1 just below/at multiples of the period (where a
  // round-down magic would slip), the largest representable operands,
  // powers of two, and period = 1 (quotient equals r1).
  const std::int64_t kMax = (std::int64_t{1} << 31) - 1;
  const std::int64_t periods[] = {1, 2, 3, 7, 10, 641, 1 << 20, 6'700'417,
                                  kMax - 1, kMax};
  for (const std::int64_t t : periods) {
    const auto magic = rta_kernel_detail::div_magic(t);
    const std::int64_t quotients[] = {0, 1, 2, 3, kMax / t};
    for (const std::int64_t q : quotients) {
      for (std::int64_t delta = -2; delta <= 2; ++delta) {
        const std::int64_t r1 = q * t + delta;
        if (r1 < 0 || r1 > kMax) continue;
        EXPECT_EQ(rta_kernel_detail::floor_div_exact(r1, magic), r1 / t)
            << "r1=" << r1 << " t=" << t;
      }
    }
    EXPECT_EQ(rta_kernel_detail::floor_div_exact(kMax, magic), kMax / t);
  }
}

TEST(FloorDivExact, MatchesIntegerDivisionOnRandomOperands) {
  Rng rng(7);
  for (int i = 0; i < 200'000; ++i) {
    const std::int64_t t = rng.uniform_int(1, (std::int64_t{1} << 31) - 1);
    const std::int64_t r1 =
        rng.uniform_int(0, (std::int64_t{1} << 31) - 1);
    ASSERT_EQ(rta_kernel_detail::floor_div_exact(
                  r1, rta_kernel_detail::div_magic(t)),
              r1 / t)
        << "r1=" << r1 << " t=" << t;
  }
}

// ------------------------------------------------------- mirror upkeep --

TEST(RtaSoa, EmptyMirrorIsConsistent) {
  const RtaSoa soa;
  EXPECT_EQ(soa.size(), 0u);
  EXPECT_EQ(soa.fast_prefix(), 0u);
  EXPECT_EQ(soa.wcet_prefix_sum(0), 0u);
  EXPECT_TRUE(soa.mirrors({}));
}

TEST(RtaSoa, InsertAnyOrderMatchesRebuild) {
  Rng rng(11);
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Rng sample = rng.fork(trial);
    const bool huge = sample.uniform_int(0, 3) == 0;
    const auto n = static_cast<std::size_t>(sample.uniform_int(0, 12));
    std::vector<Subtask> subtasks = random_hosted(sample, n, huge);
    // Insert in a random order at the priority position, exactly as
    // ProcessorState::add does.
    for (std::size_t i = subtasks.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          sample.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(subtasks[i - 1], subtasks[j]);
    }
    RtaSoa incremental;
    std::vector<Subtask> hosted;
    for (const Subtask& s : subtasks) {
      const auto pos_it = std::lower_bound(
          hosted.begin(), hosted.end(), s,
          [](const Subtask& a, const Subtask& b) {
            return a.priority < b.priority;
          });
      const auto pos = static_cast<std::size_t>(pos_it - hosted.begin());
      hosted.insert(pos_it, s);
      incremental.insert(pos, s);
      ASSERT_TRUE(incremental.mirrors(hosted))
          << "trial " << trial << " after " << hosted.size() << " insertions";
    }
    RtaSoa rebuilt;
    rebuilt.assign(hosted);
    ASSERT_TRUE(rebuilt.mirrors(hosted));
    incremental.clear();
    EXPECT_TRUE(incremental.mirrors({}));
  }
}

TEST(RtaSoa, SaturatingPrefixSumsSurviveOversizedWcets) {
  // Three wcets near kTimeInfinity overflow any exact 64-bit prefix sum;
  // the mirror must stay consistent (saturate identically on the insert
  // and rebuild paths) rather than wrap.
  const Time huge = std::numeric_limits<Time>::max() / 2;
  std::vector<Subtask> hosted;
  RtaSoa incremental;
  for (std::size_t i = 0; i < 3; ++i) {
    hosted.push_back(make_subtask(i, huge, huge, huge));
    incremental.insert(i, hosted.back());
    ASSERT_TRUE(incremental.mirrors(hosted));
  }
  // Front insertion shifts every saturated suffix entry.
  hosted.insert(hosted.begin(), make_subtask(0, 1, 4, 4));
  incremental.insert(0, hosted.front());
  EXPECT_TRUE(incremental.mirrors(hosted));
  EXPECT_EQ(incremental.fast_prefix(), 1u);  // only the front period fits.
}

TEST(ProcessorState, CacheMirrorsHostedSetAfterAddCopyAssign) {
  Rng rng(13);
  ProcessorState processor;
  std::vector<std::size_t> order{5, 1, 9, 0, 3, 7, 2, 8, 4, 6};
  for (const std::size_t priority : order) {
    processor.add(random_subtask(rng, priority, false));
    // fits() on a fresh candidate exercises the cache (and thus the SoA
    // mirror) right after the incremental insert.
    const Subtask probe = random_subtask(rng, 10, false);
    std::vector<KernelFit> verdict(1);
    processor.fits_batch(std::span<const Subtask>(&probe, 1), verdict);
    ASSERT_EQ(processor.fits(probe), verdict[0].fits);
  }

  // Copy and assignment drop the cache; the next probe rebuilds it and
  // must see the same hosted set (same verdicts as the original).
  const Subtask probe = random_subtask(rng, 4, false);
  ProcessorState copied(processor);
  ProcessorState assigned;
  assigned.add(random_subtask(rng, 0, false));
  assigned = processor;
  EXPECT_EQ(copied.fits(probe), processor.fits(probe));
  EXPECT_EQ(assigned.fits(probe), processor.fits(probe));
  EXPECT_EQ(copied.subtasks().size(), processor.subtasks().size());
}

// ------------------------------------------------ kernel vs scalar RTA --

TEST(RtaKernel, AnalyzeMatchesScalarPerPrefix) {
  Rng rng(17);
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    Rng sample = rng.fork(trial);
    const bool huge = sample.uniform_int(0, 3) == 0;
    const std::vector<Subtask> hosted = random_hosted(
        sample, static_cast<std::size_t>(sample.uniform_int(0, 10)), huge);
    const ProcessorRta kernel = kernel_analyze(hosted);
    bool schedulable = true;
    std::size_t first_miss = hosted.size();
    for (std::size_t i = 0; i < hosted.size(); ++i) {
      const RtaOutcome scalar =
          response_time(hosted[i].wcet, hosted[i].deadline,
                        std::span<const Subtask>(hosted).first(i));
      if (!scalar.schedulable) {
        schedulable = false;
        first_miss = i;
        break;
      }
      ASSERT_EQ(kernel.response[i], scalar.response) << "trial " << trial;
    }
    ASSERT_EQ(kernel.schedulable, schedulable) << "trial " << trial;
    ASSERT_EQ(kernel.first_miss, first_miss) << "trial " << trial;
  }
}

TEST(RtaKernel, BoundaryDeadlinesCrossTheFastGuardBitIdentically) {
  // deadline straddling 2^31 flips the kernel between the division-free
  // loop and the checked scalar fallback; outcomes must not change.
  const std::vector<Subtask> hosted = {
      make_subtask(0, 3, 10, 10),
      make_subtask(1, 7, 50, 50),
  };
  RtaSoa soa;
  soa.assign(hosted);
  for (const Time deadline :
       {kBoundary - 2, kBoundary - 1, kBoundary, kBoundary + 1}) {
    for (const Time wcet : {Time{1}, Time{12345}, kBoundary - 1}) {
      const RtaOutcome kernel =
          kernel_response_time(hosted, soa, hosted.size(), wcet, deadline, 0);
      const RtaOutcome scalar = response_time(wcet, deadline, hosted);
      ASSERT_EQ(kernel.schedulable, scalar.schedulable)
          << "wcet=" << wcet << " deadline=" << deadline;
      ASSERT_EQ(kernel.response, scalar.response)
          << "wcet=" << wcet << " deadline=" << deadline;
    }
  }
}

TEST(RtaKernel, BoundaryPeriodsForceTheScalarFallbackBitIdentically) {
  // A period at exactly 2^31 is kernel-ineligible (the reciprocal trick's
  // error bound needs T < 2^31); one at 2^31 - 1 is the last eligible
  // value.  Both sides must agree with the scalar path.
  for (const Time period : {kBoundary - 1, kBoundary, kBoundary + 1}) {
    const std::vector<Subtask> hosted = {
        make_subtask(0, 5, period, period),
        make_subtask(1, 3, 40, 40),
    };
    RtaSoa soa;
    soa.assign(hosted);
    EXPECT_EQ(soa.fast_prefix(), period < kBoundary ? 2u : 0u);
    const RtaOutcome kernel =
        kernel_response_time(hosted, soa, hosted.size(), 9, 200, 0);
    const RtaOutcome scalar = response_time(9, 200, hosted);
    ASSERT_EQ(kernel.schedulable, scalar.schedulable) << "period=" << period;
    ASSERT_EQ(kernel.response, scalar.response) << "period=" << period;
  }
}

TEST(RtaKernel, SeededAndExtraTwinsMatchScalar) {
  Rng rng(19);
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    Rng sample = rng.fork(trial);
    const bool huge = sample.uniform_int(0, 3) == 0;
    const std::vector<Subtask> hosted = random_hosted(
        sample, static_cast<std::size_t>(sample.uniform_int(1, 8)), huge);
    RtaSoa soa;
    soa.assign(hosted);
    const auto prefix = static_cast<std::size_t>(
        sample.uniform_int(0, static_cast<std::int64_t>(hosted.size())));
    const Subtask probe = random_subtask(sample, prefix, huge);
    const Time seed = sample.uniform_int(0, probe.wcet);
    const auto hp = std::span<const Subtask>(hosted).first(prefix);

    const RtaOutcome ks = kernel_response_time(hosted, soa, prefix, probe.wcet,
                                               probe.deadline, seed);
    const RtaOutcome ss =
        response_time_seeded(probe.wcet, probe.deadline, hp, seed);
    ASSERT_EQ(ks.schedulable, ss.schedulable) << "trial " << trial;
    ASSERT_EQ(ks.response, ss.response) << "trial " << trial;

    const Subtask extra = random_subtask(sample, 0, huge);
    const RtaOutcome kw = kernel_response_time_with(
        hosted, soa, prefix, probe.wcet, probe.deadline, extra, seed);
    const RtaOutcome sw =
        response_time_with(probe.wcet, probe.deadline, hp, extra, seed);
    ASSERT_EQ(kw.schedulable, sw.schedulable) << "trial " << trial;
    ASSERT_EQ(kw.response, sw.response) << "trial " << trial;
  }
}

// ----------------------------------------------------- batch admission --

/// The documented fits() semantics from scratch (see
/// admission_cache_test.cpp): candidate under its prefix, then every
/// lower-priority hosted subtask with the candidate as extra interferer.
bool oracle_fits(std::span<const Subtask> hosted, const Subtask& candidate,
                 Time& response) {
  const auto pos_it = std::lower_bound(
      hosted.begin(), hosted.end(), candidate,
      [](const Subtask& a, const Subtask& b) { return a.priority < b.priority; });
  const auto pos = static_cast<std::size_t>(pos_it - hosted.begin());
  const RtaOutcome own =
      response_time(candidate.wcet, candidate.deadline, hosted.first(pos));
  response = own.response;
  if (!own.schedulable) return false;
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

TEST(RtaKernel, BatchVerdictsMatchScalarOracleAndSingleProbes) {
  Rng rng(23);
  for (std::uint64_t trial = 0; trial < 120; ++trial) {
    Rng sample = rng.fork(trial);
    const bool huge = sample.uniform_int(0, 3) == 0;
    const std::vector<Subtask> hosted = random_hosted(
        sample, static_cast<std::size_t>(sample.uniform_int(0, 8)), huge);
    ProcessorState processor;
    for (const Subtask& s : hosted) processor.add(s);

    std::vector<Subtask> candidates;
    for (std::size_t c = 0; c < 5; ++c) {
      candidates.push_back(random_subtask(
          sample, static_cast<std::size_t>(sample.uniform_int(0, 12)), huge));
    }
    std::vector<KernelFit> verdicts(candidates.size());
    processor.fits_batch(candidates, verdicts);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      Time oracle_response = 0;
      const bool expected = oracle_fits(hosted, candidates[c], oracle_response);
      ASSERT_EQ(verdicts[c].fits, expected) << "trial " << trial;
      ASSERT_EQ(processor.fits(candidates[c]), expected) << "trial " << trial;
      if (expected) {
        ASSERT_EQ(verdicts[c].response, oracle_response) << "trial " << trial;
      }
    }
  }
}

TEST(RtaKernel, KnownMissSeedRejectsImmediately) {
  // A hosted subtask already past its deadline memoizes kTimeInfinity;
  // any probe that would re-examine it must reject without re-deriving
  // the miss.  The candidate outranks the miss, so the candidate itself
  // fits (empty prefix + one light interferer) and the hosted miss is the
  // rejection reason -- reported as response 0 per KernelFit's contract.
  ProcessorState processor;
  processor.add(make_subtask(1, 8, 10, 10));
  processor.add(make_subtask(2, 8, 10, 9));  // R = 16 > 9: hosted miss.
  const Subtask candidate = make_subtask(0, 1, 1000, 1000);
  EXPECT_FALSE(processor.fits(candidate));
  std::vector<KernelFit> verdict(1);
  processor.fits_batch(std::span<const Subtask>(&candidate, 1), verdict);
  EXPECT_FALSE(verdict[0].fits);
  EXPECT_EQ(verdict[0].response, 0);  // hosted subtask was the reason.
}

TEST(RtaKernel, FailingProbeChecksTheLowestPriorityConstraintFirst) {
  // Only the lowest hosted subtask misses once the top-priority candidate
  // joins (R = 8 > 7), at U = 0.8, so no utilization argument decides it:
  // the probe analyses the candidate, then that constraint, and stops.  A
  // passing probe still analyses every constraint.
  const Subtask candidate = make_subtask(0, 2, 10, 10);
  const Subtask fitting = make_subtask(0, 1, 10, 10);
  for (const Time top_period : {Time{10}, kBoundary}) {
    // A period of 2^31 leaves the fused fast path for the generic one.
    const std::vector<Subtask> hosted{make_subtask(1, 2, top_period, 10),
                                      make_subtask(2, 2, 10, 10),
                                      make_subtask(3, 2, 10, 7)};
    RtaSoa soa;
    soa.assign(hosted);
    const ProcessorRta exact = kernel_analyze(hosted);
    ASSERT_TRUE(exact.schedulable);
    std::vector<Time> responses(hosted.size(), 0);

    const KernelFit miss = kernel_fits(hosted, soa, exact.response, candidate,
                                       responses, /*seeds_exact=*/true);
    EXPECT_FALSE(miss.fits) << top_period;
    EXPECT_EQ(miss.response, 0) << top_period;  // a hosted subtask missed
    EXPECT_EQ(miss.seeded_calls, 1u) << top_period;

    const KernelFit pass = kernel_fits(hosted, soa, exact.response, fitting,
                                       responses, /*seeds_exact=*/true);
    EXPECT_TRUE(pass.fits) << top_period;
    EXPECT_EQ(pass.seeded_calls, 3u) << top_period;
    EXPECT_EQ(responses, (std::vector<Time>{3, 5, 7})) << top_period;
  }
}

// ------------------------------------------------------- jitter kernel --

TEST(RtaKernel, JitterResponseMatchesScalarSaturatingLoop) {
  Rng rng(29);
  for (std::uint64_t trial = 0; trial < 300; ++trial) {
    Rng sample = rng.fork(trial);
    const bool huge = sample.uniform_int(0, 3) == 0;
    const std::vector<Subtask> hosted = random_hosted(
        sample, static_cast<std::size_t>(sample.uniform_int(1, 8)), huge);
    RtaSoa soa;
    soa.assign(hosted);
    const auto i = static_cast<std::size_t>(
        sample.uniform_int(0, static_cast<std::int64_t>(hosted.size()) - 1));
    const auto hp = std::span<const Subtask>(hosted).first(i);
    const Time jitter = sample.uniform_int(0, 1) == 0
                            ? sample.uniform_int(0, 5000)
                            : kBoundary + sample.uniform_int(-2, 2);
    const Time bound = hosted[i].period;

    // Scalar replica of the pre-kernel robustness fixed point.
    const auto sat_add = [](Time a, Time b) {
      const auto sum = checked_add(a, b);
      return sum ? *sum : kTimeInfinity;
    };
    std::optional<Time> expected;
    if (hosted[i].wcet <= bound) {
      const auto sat_interference = [&](Time t) {
        const auto demand = oracle::interference_at(t, hp);
        return demand ? *demand : kTimeInfinity;
      };
      Time r = sat_add(hosted[i].wcet,
                       sat_interference(sat_add(hosted[i].wcet, jitter)));
      while (r <= bound) {
        const Time next =
            sat_add(hosted[i].wcet, sat_interference(sat_add(r, jitter)));
        if (next == r) {
          expected = r;
          break;
        }
        r = next;
      }
    }
    ASSERT_EQ(kernel_jitter_response(hosted, soa, i, hosted[i].wcet, bound,
                                     jitter),
              expected)
        << "trial " << trial;
  }
}

// ------------------------------------------- scratch scheduling points --

TEST(SchedulingPoints, ScratchOverloadMatchesAllocatingOverload) {
  Rng rng(31);
  std::vector<Time> scratch;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    Rng sample = rng.fork(trial);
    // Periods are drawn within ~64x of the deadline so the point sets stay
    // small even at 2^31-scale deadlines (the count grows as D/T_j).
    const bool huge = sample.uniform_int(0, 7) == 0;
    const Time deadline = huge ? kBoundary + sample.uniform_int(-2, 2)
                               : sample.uniform_int(1, 20'000);
    std::vector<Subtask> interferers;
    const auto n = static_cast<std::size_t>(sample.uniform_int(0, 6));
    for (std::size_t i = 0; i < n; ++i) {
      const Time period =
          sample.uniform_int(std::max<Time>(1, deadline / 64), deadline + 3);
      interferers.push_back(
          make_subtask(i, sample.uniform_int(1, period), period, period));
    }
    const std::vector<Time> allocated =
        oracle::scheduling_points(deadline, interferers);
    oracle::scheduling_points(deadline, interferers, scratch);
    ASSERT_EQ(scratch, allocated) << "trial " << trial;
    ASSERT_TRUE(std::is_sorted(scratch.begin(), scratch.end()));
    ASSERT_EQ(std::adjacent_find(scratch.begin(), scratch.end()),
              scratch.end());
  }
}

}  // namespace
}  // namespace rmts
