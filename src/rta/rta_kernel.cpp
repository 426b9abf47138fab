#include "rta/rta_kernel.hpp"

#include <algorithm>
#include <cassert>

#include "common/checked_math.hpp"

namespace rmts {

namespace {

// The fixed-point building blocks (kFastBound, sat_add, period_eligible,
// insert_position, memoized_magic, head_interference) live inline in
// rta_kernel.hpp so the fused fast path of kernel_fits can compile
// straight into ProcessorState's probe loop.
using rta_kernel_detail::head_interference;
using rta_kernel_detail::insert_position;
using rta_kernel_detail::kFastBound;
using rta_kernel_detail::memoized_magic;
using rta_kernel_detail::period_eligible;
using rta_kernel_detail::sat_add;

/// Per-element SoA encoding: periods clamp into [1, 2^31) with a validity
/// note carried by fast_prefix(); wcets clamp at 2^31 - 1 (an oversized
/// wcet saturates the prefix sums, which already forces the scalar path
/// for any prefix containing it, so the clamped value is never consumed).
std::int32_t clamp32(Time value) noexcept {
  return static_cast<std::int32_t>(
      std::clamp<Time>(value, 1, kFastBound - 1));
}

/// The scalar saturating interference of analysis/robustness.cpp's
/// original jitter loop (sum_j ceil(t / T_j) * C_j, kTimeInfinity on
/// int64 overflow), kept here as the jitter kernel's overflow-scale
/// fallback so the fast path has a value-identical scalar twin.
Time sat_interference(Time t, std::span<const Subtask> interferers) noexcept {
  Time demand = 0;
  for (const Subtask& j : interferers) {
    const auto term = checked_mul(ceil_div(t, j.period), j.wcet);
    if (!term) return kTimeInfinity;
    const auto sum = checked_add(demand, *term);
    if (!sum) return kTimeInfinity;
    demand = *sum;
  }
  return demand;
}

Time add_sat_time(Time a, Time b) noexcept {
  const auto sum = checked_add(a, b);
  return sum ? *sum : kTimeInfinity;
}

/// Shared fixed-point core.  `prefix` selects the interferer set
/// subtasks[0, prefix); `extra` (when kHasExtra) rides on top exactly like
/// response_time_with's candidate.  Falls back to the checked scalar
/// functions whenever the probe leaves the proven no-overflow regime, so
/// outcomes are bit-identical to rta.cpp by construction everywhere.
template <bool kHasExtra>
RtaOutcome kernel_rt(std::span<const Subtask> subtasks, const RtaSoa& soa,
                     std::size_t prefix, Time wcet, Time deadline,
                     const Subtask* extra,
                     rta_kernel_detail::DivMagic extra_magic, Time seed) {
  assert(prefix <= subtasks.size());
  assert(soa.size() == subtasks.size());
  if (wcet > deadline) return RtaOutcome{false, wcet, 0};

  const std::uint64_t interferer_sum =
      kHasExtra ? sat_add(soa.wcet_prefix_sum(prefix),
                          static_cast<std::uint64_t>(std::max<Time>(0, extra->wcet)))
                : soa.wcet_prefix_sum(prefix);
  const bool fast =
      prefix <= soa.fast_prefix() && wcet >= 1 &&
      deadline < kFastBound &&
      interferer_sum < static_cast<std::uint64_t>(kFastBound) &&
      (!kHasExtra || (period_eligible(extra->period) && extra->wcet >= 0 &&
                      extra->wcet < kFastBound));
  if (!fast) {
    const auto hp = subtasks.first(prefix);
    if constexpr (kHasExtra) {
      return response_time_with(wcet, deadline, hp, *extra, seed);
    } else {
      return response_time_seeded(wcet, deadline, hp, seed);
    }
  }

  // One-job demand of everyone (identical to the scalar seeding loop,
  // which cannot overflow in this regime), raised to the caller's seed.
  const Time base = wcet + static_cast<Time>(interferer_sum);
  Time r = std::max(base, seed);

  int iterations = 0;
  while (true) {
    ++iterations;
    if (r > deadline) return RtaOutcome{false, r, iterations};
    // demand(r) = wcet + sum_j ceil(r/T_j)*C_j
    //           = base + sum_j floor((r-1)/T_j)*C_j     (r >= 1)
    Time next = base + head_interference(soa, prefix, r - 1);
    if constexpr (kHasExtra) {
      next += rta_kernel_detail::floor_div_exact(r - 1, extra_magic) *
              extra->wcet;
    }
    if (next == r) return RtaOutcome{true, r, iterations};
    r = next;  // iterates are strictly increasing until the fixed point
  }
}

}  // namespace

namespace rta_kernel_detail {

DivMagic div_magic(std::int64_t period) noexcept {
  // Granlund-Montgomery round-up magic, specialized to dividends < 2^31
  // with a fixed shift of 63.  Let d = period and mul = ceil(2^63 / d),
  // i.e. mul * d = 2^63 + e with 0 <= e < d.  For any 0 <= r < 2^31:
  //   (r * mul) / 2^63 = (r + r*e/2^63) / d, and
  //   r*e/2^63 < 2^31 * 2^31 / 2^63 = 1/2 < 1,
  // so the numerator is r plus a fraction below 1 and flooring the whole
  // expression yields exactly floor(r / d) (the next multiple of d is at
  // least r + 1 away).  Width: mul <= 2^63 (d = 1), so the widening
  // product in floor_div_exact is at most 2^94 and the 128-bit
  // intermediate never wraps; the fixed shift costs no per-element shift
  // load and no variable-shift micro-ops in the inner loop.
  assert(period >= 1 && period < (std::int64_t{1} << 31));
  const auto d = static_cast<std::uint64_t>(period);
  const std::uint64_t mul = ((std::uint64_t{1} << 63) + d - 1) / d;
  return DivMagic{mul};
}

}  // namespace rta_kernel_detail

void RtaSoa::clear() noexcept {
  periods_.clear();
  wcets_.clear();
  div_mul_.clear();
  prefix_wcet_.assign(1, 0);  // prefix sums keep their size()+1 invariant
  fast_prefix_ = 0;
  hosted_fast_ = true;
}

void RtaSoa::assign(std::span<const Subtask> subtasks) {
  const std::size_t n = subtasks.size();
  periods_.resize(n);
  wcets_.resize(n);
  div_mul_.resize(n);
  prefix_wcet_.resize(n + 1);
  prefix_wcet_[0] = 0;
  fast_prefix_ = n;
  hosted_fast_ = true;
  for (std::size_t j = 0; j < n; ++j) {
    const Subtask& s = subtasks[j];
    periods_[j] = clamp32(s.period);
    wcets_[j] = clamp32(s.wcet);
    const bool eligible = period_eligible(s.period);
    const auto magic = eligible ? rta_kernel_detail::div_magic(s.period)
                                : rta_kernel_detail::DivMagic{};
    div_mul_[j] = magic.mul;
    if (!eligible && j < fast_prefix_) fast_prefix_ = j;
    hosted_fast_ = hosted_fast_ && s.wcet >= 1 && s.deadline < kFastBound;
    prefix_wcet_[j + 1] = sat_add(
        prefix_wcet_[j], static_cast<std::uint64_t>(std::max<Time>(0, s.wcet)));
  }
}

void RtaSoa::insert(std::size_t pos, const Subtask& subtask) {
  assert(pos <= size());
  const auto offset = static_cast<std::ptrdiff_t>(pos);
  const bool eligible = period_eligible(subtask.period);
  periods_.insert(periods_.begin() + offset, clamp32(subtask.period));
  wcets_.insert(wcets_.begin() + offset, clamp32(subtask.wcet));
  const auto magic = eligible ? rta_kernel_detail::div_magic(subtask.period)
                              : rta_kernel_detail::DivMagic{};
  div_mul_.insert(div_mul_.begin() + offset, magic.mul);
  // Every prefix that now contains the new element grows by its wcet:
  // new[j] = sat(old[j-1] + w) for j > pos, and sat(sat(x) + w) equals
  // sat(x + w), so the stored (possibly saturated) sums update in place
  // without ever needing the true 64-bit wcets back.
  const auto wcet64 =
      static_cast<std::uint64_t>(std::max<Time>(0, subtask.wcet));
  const std::uint64_t at_pos = prefix_wcet_[pos];
  prefix_wcet_.insert(prefix_wcet_.begin() + offset + 1, at_pos);
  for (std::size_t j = pos + 1; j < prefix_wcet_.size(); ++j) {
    prefix_wcet_[j] = sat_add(prefix_wcet_[j], wcet64);
  }
  if (eligible) {
    if (pos <= fast_prefix_) ++fast_prefix_;
  } else {
    fast_prefix_ = std::min(fast_prefix_, pos);
  }
  hosted_fast_ =
      hosted_fast_ && subtask.wcet >= 1 && subtask.deadline < kFastBound;
}

void RtaSoa::remove(std::size_t pos, std::span<const Subtask> remaining) {
  assert(pos < size());
  assert(remaining.size() + 1 == size());
  const auto offset = static_cast<std::ptrdiff_t>(pos);
  periods_.erase(periods_.begin() + offset);
  wcets_.erase(wcets_.begin() + offset);
  div_mul_.erase(div_mul_.begin() + offset);
  // Prefixes [0, pos] never contained the removed entry and stay exact;
  // everything after is recomputed from the true 64-bit wcets (a
  // saturated sum cannot be decremented in place, and re-deriving from
  // the clamped wcets32 would diverge from assign()).
  prefix_wcet_.pop_back();
  for (std::size_t j = pos; j < remaining.size(); ++j) {
    prefix_wcet_[j + 1] =
        sat_add(prefix_wcet_[j], static_cast<std::uint64_t>(
                                     std::max<Time>(0, remaining[j].wcet)));
  }
  // Both guards may have been pinned by the removed entry; rescan.  The
  // per-element magic multipliers are position-independent and survive
  // the erase untouched.
  fast_prefix_ = remaining.size();
  hosted_fast_ = true;
  for (std::size_t j = 0; j < remaining.size(); ++j) {
    if (!period_eligible(remaining[j].period) && j < fast_prefix_) {
      fast_prefix_ = j;
    }
    hosted_fast_ = hosted_fast_ && remaining[j].wcet >= 1 &&
                   remaining[j].deadline < kFastBound;
  }
}

bool RtaSoa::mirrors(std::span<const Subtask> subtasks) const {
  RtaSoa fresh;
  fresh.assign(subtasks);
  return periods_ == fresh.periods_ && wcets_ == fresh.wcets_ &&
         div_mul_ == fresh.div_mul_ &&
         prefix_wcet_ == fresh.prefix_wcet_ &&
         fast_prefix_ == fresh.fast_prefix_ &&
         hosted_fast_ == fresh.hosted_fast_;
}

RtaOutcome kernel_response_time(std::span<const Subtask> subtasks,
                                const RtaSoa& soa, std::size_t prefix,
                                Time wcet, Time deadline, Time seed) {
  return kernel_rt<false>(subtasks, soa, prefix, wcet, deadline, nullptr,
                          rta_kernel_detail::DivMagic{}, seed);
}

RtaOutcome kernel_response_time_with(std::span<const Subtask> subtasks,
                                     const RtaSoa& soa, std::size_t prefix,
                                     Time wcet, Time deadline,
                                     const Subtask& extra, Time seed) {
  // The fast-path guard in kernel_rt requires an eligible extra period
  // before it ever consumes the magic, so the placeholder is never read.
  const auto magic = period_eligible(extra.period)
                         ? memoized_magic(extra.period)
                         : rta_kernel_detail::DivMagic{};
  return kernel_rt<true>(subtasks, soa, prefix, wcet, deadline, &extra, magic,
                         seed);
}

KernelFit kernel_fits_generic(std::span<const Subtask> subtasks,
                              const RtaSoa& soa, std::span<const Time> seeds,
                              const Subtask& candidate,
                              std::span<Time> responses, std::size_t pos,
                              rta_kernel_detail::DivMagic candidate_magic,
                              bool boost) {
  assert(seeds.size() == subtasks.size());
  KernelFit verdict;

  // The candidate itself, interfered by the higher-priority prefix.
  const RtaOutcome own =
      kernel_rt<false>(subtasks, soa, pos, candidate.wcet, candidate.deadline,
                       nullptr, rta_kernel_detail::DivMagic{}, 0);
  verdict.iterations += static_cast<std::uint64_t>(own.iterations);
  if (!own.schedulable) {
    verdict.response = own.response;
    return verdict;
  }

  // Every lower-priority subtask now additionally sees the candidate; its
  // memoized candidate-free response seeds the re-analysis (stale values
  // are still valid lower bounds, and the O(1) boost applies whenever the
  // seed is promised exact; kTimeInfinity is a known miss).  Lowest
  // priority first, like the fast path in rta_kernel.hpp.
  for (std::size_t i = subtasks.size(); i-- > pos;) {
    Time seed = seeds[i];
    if (seed == kTimeInfinity) return verdict;  // miss stays a miss
    if (boost && seed >= 1 && seed < kFastBound) {
      seed +=
          (rta_kernel_detail::floor_div_exact(seed - 1, candidate_magic) + 1) *
          candidate.wcet;
    }
    ++verdict.seeded_calls;
    const RtaOutcome seeded =
        kernel_rt<true>(subtasks, soa, i, subtasks[i].wcet,
                        subtasks[i].deadline, &candidate, candidate_magic, seed);
    verdict.iterations += static_cast<std::uint64_t>(seeded.iterations);
    if (!seeded.schedulable) return verdict;
    responses[i] = seeded.response;
  }
  verdict.fits = true;
  verdict.response = own.response;
  return verdict;
}

void rta_batch_fits(std::span<const Subtask> subtasks, const RtaSoa& soa,
                    std::span<const Time> seeds,
                    std::span<const Subtask> candidates,
                    std::span<KernelFit> verdicts, std::span<Time> responses,
                    bool seeds_exact) {
  assert(verdicts.size() == candidates.size());
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    verdicts[c] = kernel_fits(subtasks, soa, seeds, candidates[c], responses,
                              seeds_exact);
  }
}

ProcessorRta kernel_analyze(std::span<const Subtask> subtasks) {
  // One scratch mirror per thread: analyze_processor is called from the
  // router's pool workers and from parallel experiment samples, each of
  // which reuses its scratch allocation-free after the first call.
  thread_local RtaSoa scratch;
  scratch.assign(subtasks);

  ProcessorRta result;
  result.response.assign(subtasks.size(), 0);
  result.first_miss = subtasks.size();
  for (std::size_t i = 0; i < subtasks.size(); ++i) {
    const RtaOutcome outcome =
        kernel_rt<false>(subtasks, scratch, i, subtasks[i].wcet,
                         subtasks[i].deadline, nullptr,
                         rta_kernel_detail::DivMagic{}, 0);
    if (!outcome.schedulable) {
      result.schedulable = false;
      result.first_miss = i;
      return result;
    }
    result.response[i] = outcome.response;
  }
  result.schedulable = true;
  return result;
}

std::optional<Time> kernel_jitter_response(std::span<const Subtask> subtasks,
                                           const RtaSoa& soa,
                                           std::size_t prefix, Time wcet,
                                           Time bound, Time jitter) {
  assert(prefix <= subtasks.size());
  assert(soa.size() == subtasks.size());
  assert(jitter >= 0);
  if (wcet > bound) return std::nullopt;

  const std::uint64_t interferer_sum = soa.wcet_prefix_sum(prefix);
  // The jitter analogue of the no-overflow argument: demand is evaluated
  // at t = r + J with r <= bound, so every term is at most
  // (bound + J) * C_j and the sum stays under 2^31 + 2^62 whenever
  // bound + J and the one-job sum are both below 2^31.
  const bool fast =
      prefix <= soa.fast_prefix() && wcet >= 1 && bound >= 0 &&
      bound < kFastBound && jitter < kFastBound &&
      bound + jitter < kFastBound &&
      interferer_sum < static_cast<std::uint64_t>(kFastBound);
  if (!fast) {
    const auto hp = subtasks.first(prefix);
    Time r = add_sat_time(wcet, sat_interference(add_sat_time(wcet, jitter), hp));
    while (r <= bound) {
      const Time next =
          add_sat_time(wcet, sat_interference(add_sat_time(r, jitter), hp));
      if (next == r) return r;
      r = next;
    }
    return std::nullopt;
  }

  const Time base = wcet + static_cast<Time>(interferer_sum);
  // Seed exactly like the scalar loop: wcet + I(wcet + J), where
  // I(t) = sum ceil(t/T_j) C_j = interferer_sum + head(t - 1) for t >= 1.
  Time r = base + head_interference(soa, prefix, wcet + jitter - 1);
  while (r <= bound) {
    const Time next = base + head_interference(soa, prefix, r + jitter - 1);
    if (next == r) return r;
    r = next;
  }
  return std::nullopt;
}

}  // namespace rmts
