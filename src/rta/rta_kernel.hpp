// Batched, vectorized RTA kernel: structure-of-arrays time-demand
// evaluation behind every admission decision (ROADMAP item 3).
//
// The scalar fixed point in rta.cpp walks an array-of-structs Subtask
// span and pays one 64-bit integer division per interferer per iterate
// (ceil_div).  This kernel keeps a SoA mirror of a processor's hosted
// subtasks -- contiguous int32 periods[], wcets[], fixed-point
// reciprocals (Granlund-Montgomery magic multipliers) and saturating
// wcet prefix sums -- and evaluates the whole time-demand sum with a
// division-free, SIMD-friendly loop:
//
//   ceil(r / T_j) = floor((r-1) / T_j) + 1            (r >= 1), so
//   demand(r) = wcet + S[prefix] + sum_j floor((r-1)/T_j) * C_j
//
// where S is the prefix sum of interferer wcets and each floor quotient
// is one widening multiply by ceil(2^63 / T_j) and a constant shift,
// exact for every dividend below 2^31 (see rta_kernel.cpp for the
// proof).  All arithmetic stays in the PR1
// no-overflow regime: the kernel only runs when deadline < 2^31 and the
// interferer one-job sum < 2^31, exactly the scalar fast-path guard, so
// every intermediate fits int64 with slack (DESIGN.md Section 9 has the
// full argument).  Outside that regime -- or when any mirrored period
// falls outside [1, 2^31) -- the kernel transparently calls the checked
// scalar path from rta.hpp.
//
// Correctness bar (fuzzer-enforced, tools/rmts_fuzz.cpp `kernel` mode):
// accept/reject verdicts and reported response times are bit-identical to
// the scalar functions for every input; only iteration counts may differ
// when a caller supplies a different (still valid) seed.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/time.hpp"
#include "rta/rta.hpp"
#include "tasks/subtask.hpp"

namespace rmts {

namespace rta_kernel_detail {

/// 128-bit intermediate for the fixed shift-63 reciprocal (GCC/Clang
/// builtin; __extension__ keeps -Wpedantic quiet).
__extension__ typedef unsigned __int128 u128;

/// Fixed-point reciprocal of a period d in [1, 2^31): mul = ceil(2^63 / d)
/// makes
///   (r * mul) >> 63 == r / d   exactly for all 0 <= r < 2^31
/// (proof in rta_kernel.cpp).  The fixed shift keeps the inner loop to one
/// widening multiply and a constant shift -- no per-element shift load and
/// no variable-shift micro-ops.
struct DivMagic {
  std::uint64_t mul{0};
};

/// Builds the reciprocal for `period`; requires 1 <= period < 2^31.
[[nodiscard]] DivMagic div_magic(std::int64_t period) noexcept;

/// Exact floor(r1 / period) through the precomputed reciprocal.
/// Requires 0 <= r1 < 2^31 and `magic` built from the same period.
[[nodiscard]] inline std::int64_t floor_div_exact(std::int64_t r1,
                                                  DivMagic magic) noexcept {
  // Computing the halves as two separate 64-bit expressions (plain
  // low-half multiply, and the >> 64 high-part-multiply idiom) keeps GCC
  // in 64-bit registers; a u128 temporary shifted by 63 round-trips
  // through the stack instead.
  const auto r = static_cast<std::uint64_t>(r1);
  const std::uint64_t lo = r * magic.mul;
  const auto hi = static_cast<std::uint64_t>((static_cast<u128>(r) * magic.mul) >> 64);
  return static_cast<std::int64_t>((hi << 1) | (lo >> 63));
}

/// The PR1 no-overflow bound: deadlines, periods and one-job interferer
/// sums below 2^31 make every fixed-point intermediate fit int64 with
/// slack (DESIGN.md Section 9).
inline constexpr Time kFastBound = Time{1} << 31;

/// Saturation cap for the wcet prefix sums: far above kFastBound (the
/// only regime that consumes them exactly) yet low enough that one more
/// int64 wcet cannot wrap the sum.
inline constexpr std::uint64_t kPrefixCap = std::uint64_t{1} << 62;

[[nodiscard]] inline std::uint64_t sat_add(std::uint64_t a,
                                           std::uint64_t b) noexcept {
  const std::uint64_t sum = a + b;
  return (sum < a || sum > kPrefixCap) ? kPrefixCap : sum;
}

[[nodiscard]] inline bool period_eligible(Time period) noexcept {
  return period >= 1 && period < kFastBound;
}

/// Memoized candidate reciprocal.  The hardware divide in div_magic is
/// the slowest single instruction on the probe path, and candidate
/// periods recur heavily: first-fit partitioners probe the SAME
/// candidate against every processor in a row, and admission sweeps
/// cycle a bounded candidate set.  A tiny thread-local direct-mapped
/// table turns the recurring case into one load+compare; misses
/// recompute exactly, so the result is always div_magic(period) bit for
/// bit.
[[nodiscard]] inline DivMagic memoized_magic(Time period) noexcept {
  struct Entry {
    Time period{0};  // periods are >= 1, so 0 never false-hits
    std::uint64_t mul{0};
  };
  thread_local Entry memo[1024];
  Entry& e = memo[(static_cast<std::uint64_t>(period) *
                   std::uint64_t{0x9E3779B97F4A7C15}) >>
                  54];
  if (e.period != period) {
    e.period = period;
    e.mul = div_magic(period).mul;
  }
  return DivMagic{e.mul};
}

/// Position of the first hosted subtask with a lower priority than
/// `candidate` -- the same result as lower_bound on the priority-sorted
/// span.  Hosted sets are small (tens), so for the common sizes a
/// branchless linear count beats the binary search, whose
/// data-dependent branches mispredict on every probe stream; past the
/// cutoff the log-time search wins again.
[[nodiscard]] inline std::size_t insert_position(
    std::span<const Subtask> subtasks, const Subtask& candidate) noexcept {
  if (subtasks.size() <= 32) {
    std::size_t pos = 0;
    for (const Subtask& s : subtasks) {
      pos += static_cast<std::size_t>(s.priority < candidate.priority);
    }
    return pos;
  }
  const auto it = std::lower_bound(
      subtasks.begin(), subtasks.end(), candidate,
      [](const Subtask& a, const Subtask& b) { return a.priority < b.priority; });
  return static_cast<std::size_t>(it - subtasks.begin());
}

}  // namespace rta_kernel_detail

/// Structure-of-arrays mirror of a priority-ordered hosted subtask list.
/// Owned by ProcessorState's admission cache (maintained incrementally on
/// add(), dropped on copy like the rest of the derived data) or built as
/// a scratch for one-shot spans (analyze_processor, robustness probes).
class RtaSoa {
 public:
  /// Rebuilds the mirror from scratch.
  void assign(std::span<const Subtask> subtasks);

  /// Mirrors an insertion at `pos` (the priority position add() used).
  /// O(n - pos) like the vector insert it shadows.
  void insert(std::size_t pos, const Subtask& subtask);

  /// Mirrors a removal at `pos`.  `remaining` is the hosted set AFTER the
  /// erase (what subtasks() returns once the caller has removed the
  /// entry).  Unlike insert(), the derived suffix state cannot be patched
  /// from the stored arrays alone -- a saturated prefix sum does not
  /// remember what it absorbed, the clamped 32-bit wcets are lossy, and
  /// the removed entry may have been the one pinning fast_prefix_ or
  /// hosted_fast_ -- so the suffix sums and both guards are recomputed
  /// from the true subtask values.  O(n), the same as the vector erases.
  void remove(std::size_t pos, std::span<const Subtask> remaining);

  void clear() noexcept;

  [[nodiscard]] std::size_t size() const noexcept { return periods_.size(); }

  /// Longest prefix whose periods all lie in [1, 2^31): the kernel's
  /// division-free loop is exact only over such a prefix.  Evaluations
  /// whose interferer prefix extends past this fall back to the scalar
  /// path (wcets need no gate -- an oversized wcet already trips the
  /// one-job-sum guard via the saturating prefix sums).
  [[nodiscard]] std::size_t fast_prefix() const noexcept { return fast_prefix_; }

  /// True iff every mirrored subtask has wcet >= 1 and deadline < 2^31 --
  /// the per-subtask half of the no-overflow guard.  Together with
  /// fast_prefix() == size() and one check of the LARGEST interferer sum
  /// (prefix sums are monotone), this lets kernel_fits validate the whole
  /// seeded scan once per probe instead of re-running the guard per
  /// hosted subtask.
  [[nodiscard]] bool hosted_fast() const noexcept { return hosted_fast_; }

  /// Sum of interferer wcets over the first `prefix` entries, saturated
  /// at 2^63-ish; exact whenever it is below the no-overflow bound, which
  /// is the only regime where the kernel consumes it.
  [[nodiscard]] std::uint64_t wcet_prefix_sum(std::size_t prefix) const noexcept {
    return prefix_wcet_[prefix];
  }

  /// True iff this mirror matches `subtasks` entry for entry (periods,
  /// wcets, reciprocals, prefix sums, fast_prefix).  Consistency oracle
  /// for the property tests and the differential fuzzer.
  [[nodiscard]] bool mirrors(std::span<const Subtask> subtasks) const;

  [[nodiscard]] const std::int32_t* periods32() const noexcept {
    return periods_.data();
  }
  [[nodiscard]] const std::int32_t* wcets32() const noexcept {
    return wcets_.data();
  }
  /// Fixed-point reciprocal multipliers, parallel to periods32().
  [[nodiscard]] const std::uint64_t* div_mul() const noexcept {
    return div_mul_.data();
  }

 private:
  std::vector<std::int32_t> periods_;
  std::vector<std::int32_t> wcets_;
  std::vector<std::uint64_t> div_mul_;  // magic multiplier per period
  // size() + 1 entries (invariant holds even when empty), saturating.
  std::vector<std::uint64_t> prefix_wcet_{0};
  std::size_t fast_prefix_{0};
  bool hosted_fast_{true};  // all wcets >= 1 and deadlines < 2^31
};

namespace rta_kernel_detail {

/// Division-free total interference sum_{j < count} floor(r1 / T_j) * C_j
/// over the SoA arrays.  Requires 0 <= r1 < 2^31 and every period in
/// [1, 2^31): each magic quotient is then exact (see div_magic) and the
/// accumulated sum below r1 * sum_j C_j < 2^62, comfortably in int64.
/// The loop is branch-free and auto-vectorizable (no division, no early
/// exit); terms with T_j > r1 contribute 0 without special-casing.
[[nodiscard]] inline std::int64_t head_interference(const RtaSoa& soa,
                                                    std::size_t count,
                                                    std::int64_t r1) noexcept {
  const std::int32_t* const wcets = soa.wcets32();
  const std::uint64_t* const mul = soa.div_mul();
  std::int64_t acc = 0;
  for (std::size_t j = 0; j < count; ++j) {
    acc += floor_div_exact(r1, DivMagic{mul[j]}) *
           static_cast<std::int64_t>(wcets[j]);
  }
  return acc;
}

}  // namespace rta_kernel_detail

/// Verdict of one batched admission probe.
struct KernelFit {
  bool fits{false};
  /// The candidate's own exact response time when fits; otherwise the
  /// first candidate iterate past its deadline if the candidate itself
  /// missed, or 0 when a hosted subtask was the reason for rejection.
  Time response{0};
  /// Fixed-point iterations spent on this probe (for trace counters).
  std::uint64_t iterations{0};
  /// Seeded re-analyses of hosted subtasks performed (trace counters).
  std::uint64_t seeded_calls{0};
};

/// Kernel twin of response_time_seeded: exact response of a job (wcet,
/// deadline) under the first `prefix` subtasks of `subtasks`, whose SoA
/// mirror is `soa`.  `seed` must be a valid lower bound on the response
/// (0 is always valid).  Bit-identical outcome to the scalar function.
[[nodiscard]] RtaOutcome kernel_response_time(std::span<const Subtask> subtasks,
                                              const RtaSoa& soa,
                                              std::size_t prefix, Time wcet,
                                              Time deadline, Time seed);

/// Kernel twin of response_time_with: one extra interferer on top of the
/// mirrored prefix (the admission scan's candidate).
[[nodiscard]] RtaOutcome kernel_response_time_with(
    std::span<const Subtask> subtasks, const RtaSoa& soa, std::size_t prefix,
    Time wcet, Time deadline, const Subtask& extra, Time seed);

/// Out-of-line generic path of kernel_fits: the candidate under its
/// prefix via the checked-or-kernel twin, then the seeded scan with
/// per-call guards.  `pos`, `candidate_magic` and `boost` are the values
/// kernel_fits already computed.  Callers use kernel_fits.
[[nodiscard]] KernelFit kernel_fits_generic(
    std::span<const Subtask> subtasks, const RtaSoa& soa,
    std::span<const Time> seeds, const Subtask& candidate,
    std::span<Time> responses, std::size_t pos,
    rta_kernel_detail::DivMagic candidate_magic, bool boost);

/// One admission probe with the documented ProcessorState::fits semantics:
/// the candidate under its higher-priority prefix, then every
/// lower-priority hosted subtask with the candidate as an extra
/// interferer, lowest priority first, seeded from `seeds` (the memoized
/// candidate-free responses; stale lower bounds are fine, kTimeInfinity
/// marks a known miss and rejects on reaching it).  `seeds` is parallel
/// to `subtasks`.
///
/// Order: the candidate's own analysis runs first -- it is cheap (`pos`
/// interferers) and keeps KernelFit::response's contract -- and the hosted
/// constraints then run from the bottom up, because with rate-monotonic
/// priorities a failing probe usually fails near the bottom, where every
/// other subtask interferes.  A passing probe analyses every constraint
/// whatever the order; only a failing one stops earlier.
///
/// Each hosted subtask i the probe re-analyses and finds schedulable gets
/// its exact candidate-aware response written to `responses[i]` (parallel
/// to `subtasks`, at least as long): when the probe fits, entries from the
/// candidate's insert position to the end are exactly the responses of
/// the hosted set with the candidate added, so ProcessorState::add() of
/// that candidate can keep them instead of re-deriving them.  A rejected
/// probe leaves an unspecified suffix of that range overwritten.
///
/// With `seeds_exact`, every non-infinite seed is promised to be the EXACT
/// candidate-free fixed point of its subtask (ProcessorState warms its
/// cache to establish this), which unlocks the O(1) first-iterate
/// identity: the first candidate-aware iterate from an exact seed s is
/// s + ceil(s/T_c)*C_c, no time-demand pass needed.  Verdicts and
/// reported responses are identical either way; only iteration counts
/// shrink.
[[nodiscard]] inline KernelFit kernel_fits(std::span<const Subtask> subtasks,
                                           const RtaSoa& soa,
                                           std::span<const Time> seeds,
                                           const Subtask& candidate,
                                           std::span<Time> responses,
                                           bool seeds_exact = false) {
  namespace detail = rta_kernel_detail;
  assert(seeds.size() == subtasks.size());
  assert(soa.size() == subtasks.size());
  assert(responses.size() >= subtasks.size());
  const std::size_t pos = detail::insert_position(subtasks, candidate);
  const std::size_t n = subtasks.size();

  // The candidate's reciprocal is shared by the O(1) seed boost and every
  // seeded analysis (whose fast guard re-checks eligibility before
  // consuming it, so the ineligible placeholder is never read).
  const auto candidate_magic = detail::period_eligible(candidate.period)
                                   ? detail::memoized_magic(candidate.period)
                                   : detail::DivMagic{};
  const bool boost = seeds_exact && detail::period_eligible(candidate.period) &&
                     candidate.wcet >= 0 && candidate.wcet < detail::kFastBound;

  // Fused fast probe: when the WHOLE hosted set is in the no-overflow
  // regime (eligible periods everywhere, every wcet/deadline in range,
  // and even the largest interferer sum plus the candidate below the
  // bound -- prefix sums are monotone, so one check covers every prefix)
  // and the candidate itself is in range, the per-call guard is provably
  // true for the candidate AND every lower-priority subtask.  Run the
  // whole probe with the guard hoisted out of the loops:
  //
  //  * the candidate's own analysis starts at its one-job base (the
  //    seed-0 scalar path iterates identically);
  //  * each seeded re-analysis (lowest priority first) starts from the
  //    O(1) first-iterate identity: an exact candidate-free fixed point
  //    s satisfies s = wcet_i + I_i(s), so the first candidate-aware
  //    iterate is s + ceil(s/T_c)*C_c -- no time-demand pass needed.
  //    Exact seeds guarantee seed >= wcet_i >= 1 and
  //    seed <= deadline_i < 2^31 without checking, and the boosted
  //    iterate dominates the one-job base (each ceil term >= its wcet),
  //    making the generic path's max(base, seed) redundant.
  //
  // Iterate values, verdicts and iteration counts are identical to the
  // generic path by construction.  Defined inline so ProcessorState's
  // probe loop compiles the whole fast path into fits()/fits_batch()
  // with seeds_exact constant-folded; the generic path stays out of
  // line in rta_kernel.cpp.
  if (boost && candidate.wcet >= 1 && candidate.deadline < detail::kFastBound &&
      soa.fast_prefix() == n && soa.hosted_fast() &&
      detail::sat_add(soa.wcet_prefix_sum(n),
                      static_cast<std::uint64_t>(candidate.wcet)) <
          static_cast<std::uint64_t>(detail::kFastBound)) {
    KernelFit verdict;
    const Time cw = candidate.wcet;
    Time own_response;
    {
      if (cw > candidate.deadline) {
        verdict.response = cw;
        return verdict;
      }
      const Time base = cw + static_cast<Time>(soa.wcet_prefix_sum(pos));
      Time r = base;
      bool ok = false;
      std::uint64_t iterations = 0;
      while (true) {
        ++iterations;
        if (r > candidate.deadline) break;
        const Time next = base + detail::head_interference(soa, pos, r - 1);
        if (next == r) {
          ok = true;
          break;
        }
        r = next;
      }
      verdict.iterations += iterations;
      if (!ok) {
        verdict.response = r;
        return verdict;
      }
      own_response = r;
    }
    for (std::size_t i = n; i-- > pos;) {
      const Time seed = seeds[i];
      if (seed == kTimeInfinity) return verdict;  // miss stays a miss
      ++verdict.seeded_calls;
      Time r = seed +
               (detail::floor_div_exact(seed - 1, candidate_magic) + 1) * cw;
      const Time deadline = subtasks[i].deadline;
      const Time base =
          subtasks[i].wcet + static_cast<Time>(soa.wcet_prefix_sum(i)) + cw;
      bool ok = false;
      std::uint64_t iterations = 0;
      while (true) {
        ++iterations;
        if (r > deadline) break;
        const Time next =
            base + detail::head_interference(soa, i, r - 1) +
            detail::floor_div_exact(r - 1, candidate_magic) * cw;
        if (next == r) {
          ok = true;
          break;
        }
        r = next;
      }
      verdict.iterations += iterations;
      if (!ok) return verdict;
      responses[i] = r;
    }
    verdict.fits = true;
    verdict.response = own_response;
    return verdict;
  }

  return kernel_fits_generic(subtasks, soa, seeds, candidate, responses, pos,
                             candidate_magic, boost);
}

/// Batched admission: one verdict per candidate against the same hosted
/// set, equivalent to calling kernel_fits per candidate but amortizing
/// the SoA setup and dispatch.  `verdicts.size()` must equal
/// `candidates.size()`; `responses` is every probe's scratch, so after
/// the call it holds no one candidate's responses.
void rta_batch_fits(std::span<const Subtask> subtasks, const RtaSoa& soa,
                    std::span<const Time> seeds,
                    std::span<const Subtask> candidates,
                    std::span<KernelFit> verdicts, std::span<Time> responses,
                    bool seeds_exact = false);

/// Kernel twin of analyze_processor: builds a scratch SoA (thread-local,
/// allocation-free after warm-up) and evaluates every prefix through the
/// kernel.  Bit-identical ProcessorRta to the scalar loop.
[[nodiscard]] ProcessorRta kernel_analyze(std::span<const Subtask> subtasks);

/// Kernel twin of the robustness jitter fixed point
///   R = C + sum_j ceil((R + J) / T_j) * C_j  over the mirrored `prefix`,
/// nullopt once an iterate exceeds `bound` (iterates are non-decreasing).
/// Matches analysis/robustness.cpp's scalar loop value-for-value,
/// including its saturating overflow behavior.
[[nodiscard]] std::optional<Time> kernel_jitter_response(
    std::span<const Subtask> subtasks, const RtaSoa& soa, std::size_t prefix,
    Time wcet, Time bound, Time jitter);

}  // namespace rmts
