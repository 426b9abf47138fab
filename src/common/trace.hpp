// Cross-layer stage tracing and named counters.
//
// A Span is a scoped timer for one named pipeline stage (server decode,
// queue wait, per-op compute, pool task latency, partitioner phases,
// simulator runs); a Counter is a monotonically increasing named count
// (admission-cache hits/misses, RTA iterations, simulated events).  Both
// are designed for hot paths:
//
//  * every thread records into its own lazily-created ThreadState --
//    uncontended relaxed atomics that compile to plain increments -- so
//    recording never takes a lock and never shares a cache line with
//    another writer;
//  * per stage, count/sum/max live in one cache line and are exact;
//    quantiles come from per-thread HDR histograms (common/histogram.hpp)
//    fed every kSampleEvery-th sample -- bounding the record path's cache
//    footprint, which (not instruction count) dominated tracing cost;
//  * aggregation (trace::snapshot()) walks the registered thread states
//    under a registry mutex and merges cells, histograms and counters;
//    states of exited threads are retained, so totals never go backwards;
//  * the whole layer compiles out: configure with -DRMTS_TRACING=OFF and
//    Span/count() become empty inlines with zero code and zero data --
//    the acceptance bar for "0% overhead when compiled out".  At runtime,
//    set_enabled(false) suppresses recording behind one relaxed bool load
//    (the knob bench_e19 uses to price the instrumentation).
//
// Stages and counters are closed enums rather than string keys: O(1)
// array indexing on the record path, and the exposition layer
// (server/router.cpp `metrics` endpoint) can enumerate everything without
// a registry of dynamic names.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>

#include "common/histogram.hpp"

#ifndef RMTS_TRACING
#define RMTS_TRACING 1
#endif

namespace rmts::trace {

/// Instrumented pipeline stages.  Durations are recorded in nanoseconds.
enum class Stage : std::uint8_t {
  // Server request lifecycle (src/server/server.cpp).
  kServerDecode,     ///< socket bytes -> framed request lines (per wave)
  kServerQueueWait,  ///< request decoded -> worker picks up its batch
  kServerCompute,    ///< Router::handle for one request
  kServerWrite,      ///< flushing buffered replies to the socket
  // Per-op-class compute inside the router (src/server/router.cpp).
  kRouterAdmit,
  kRouterAnalyze,
  kRouterRobustness,
  kRouterSimulate,
  kRouterStats,
  kRouterMetrics,
  kRouterSession,  ///< all session_* ops (src/online/session.hpp)
  // Thread pool (src/common/thread_pool.cpp).
  kPoolTaskWait,  ///< post() -> a worker dequeues the task
  kPoolTaskRun,   ///< task body execution
  // Partitioner phases (src/partition/rmts.cpp).
  kPartitionDedicate,
  kPartitionPreassign,
  kPartitionPlace,
  // Simulator (src/sim/simulator.cpp).
  kSimRun,
};
inline constexpr std::size_t kStageCount = 17;

/// Monotonic named counters.
enum class Counter : std::uint8_t {
  kAdmissionCacheHit,      ///< memoized response served without re-analysis
  kAdmissionCacheMiss,     ///< invalidated/missing entry recomputed
  kAdmissionSeededRta,     ///< seeded re-analyses by fits() and MaxSplit
  kAdmissionRtaIterations, ///< fixed-point iterations across all RTA calls
  kPoolTasksPosted,
  kPoolTasksStarted,  ///< posted - started = current queue depth
  kPartitionRuns,
  kSimRuns,
  kSimEvents,  ///< event-loop iterations across all simulation runs
  kMaxSplitCalls,   ///< max_admissible_wcet invocations (split attempts)
  kMaxSplitProbes,  ///< MaxSplit's single-constraint analyses
  /// fits() probes rejected by the utilization pre-check, before any RTA.
  /// Appended last so that every earlier counter keeps its index.
  kAdmissionUtilizationRejects,
};
inline constexpr std::size_t kCounterCount = 12;

[[nodiscard]] std::string_view stage_name(Stage stage) noexcept;
[[nodiscard]] std::string_view counter_name(Counter counter) noexcept;

/// True when the tracing layer is compiled in at all.
[[nodiscard]] constexpr bool compiled_in() noexcept { return RMTS_TRACING != 0; }

/// Aggregated view of one stage across every thread that recorded it.
/// count/total_ns/max_ns are exact; latency_ns holds the 1-in-16 sampled
/// population (kSampleEvery) backing the quantiles.
struct StageSnapshot {
  std::uint64_t count{0};
  std::uint64_t total_ns{0};
  std::uint64_t max_ns{0};
  Histogram latency_ns{AtomicHistogram::kSubBits};

  /// Exact mean from the unsampled sums (the histogram's mean would only
  /// see every 16th sample).
  [[nodiscard]] double mean_ns() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(count);
  }
};

/// Point-in-time aggregation over all thread states (all zero/empty when
/// tracing is compiled out or nothing was recorded).
struct Snapshot {
  std::array<StageSnapshot, kStageCount> stages{};
  std::array<std::uint64_t, kCounterCount> counters{};
  std::size_t threads{0};

  [[nodiscard]] const StageSnapshot& stage(Stage s) const noexcept {
    return stages[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
};

#if RMTS_TRACING

/// Every kSampleEvery-th duration sample per (thread, stage) lands in the
/// HDR histogram backing the quantiles; count/sum/max are always exact.
/// Sampling keeps the hot record path inside one cache line per stage
/// (StageCell) -- unsampled histogram writes scatter across a ~250 KB
/// per-thread state and the resulting misses, not the instructions, were
/// the dominant tracing cost measured by bench_e19.
inline constexpr std::uint64_t kSampleEvery = 16;

namespace detail {

/// One stage's exact aggregates, padded to a cache line so the 16-stage
/// hot block is 1 KB and stays resident across requests.
struct alignas(64) StageCell {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> total_ns{0};
  std::atomic<std::uint64_t> max_ns{0};
  std::uint64_t tick{0};  ///< sampling phase; single-writer, never read
                          ///< by snapshot()
};

/// One thread's private recording buffers.  Single-writer by
/// construction; the atomics exist only so snapshot() may read
/// concurrently, and every increment is a relaxed load+store pair that
/// compiles to a plain add (no lock-prefixed RMW on the record path).
struct ThreadState {
  std::array<StageCell, kStageCount> cells{};
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
  /// Cold: touched once per kSampleEvery records of a stage.
  std::array<AtomicHistogram, kStageCount> stages{};
};

/// This thread's state, or nullptr before its first record.  Constant-
/// initialised, so the inlined fast path below is one TLS load and a
/// null check -- no init guard.
extern thread_local ThreadState* t_state;

/// Slow path: creates this thread's state and registers it for
/// snapshot(); called once per recording thread.
[[nodiscard]] ThreadState& register_thread();

[[nodiscard]] inline ThreadState& local_state() noexcept {
  ThreadState* state = t_state;
  return state != nullptr ? *state : register_thread();
}

extern std::atomic<bool> g_enabled;

}  // namespace detail

/// Runtime kill switch (process-wide, default on).  One relaxed load on
/// every record; compiling out (RMTS_TRACING=OFF) is the zero-cost path.
void set_enabled(bool on) noexcept;
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Records one duration sample for `stage`: exact count/sum/max always,
/// histogram bucket for every kSampleEvery-th sample.
inline void record_ns(Stage stage, std::uint64_t ns) noexcept {
  if (!enabled()) return;
  detail::ThreadState& state = detail::local_state();
  const auto index = static_cast<std::size_t>(stage);
  detail::StageCell& cell = state.cells[index];
  cell.count.store(cell.count.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  cell.total_ns.store(cell.total_ns.load(std::memory_order_relaxed) + ns,
                      std::memory_order_relaxed);
  if (ns > cell.max_ns.load(std::memory_order_relaxed)) {
    cell.max_ns.store(ns, std::memory_order_relaxed);
  }
  if (cell.tick++ % kSampleEvery == 0) {
    state.stages[index].record_single_writer(ns);
  }
}

/// Increments `counter` by `delta`.
inline void count(Counter counter, std::uint64_t delta = 1) noexcept {
  if (!enabled()) return;
  auto& cell =
      detail::local_state().counters[static_cast<std::size_t>(counter)];
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

/// Increments two counters with one enabled check and one thread-state
/// fetch.  For paths that flush a fixed pair per call (the admission
/// probe flushes iteration and seeded-call deltas on every fits()), the
/// shared prologue is most of count()'s cost; adding 0 is harmless, so
/// callers need no delta != 0 guard either.
inline void count2(Counter c1, std::uint64_t d1, Counter c2,
                   std::uint64_t d2) noexcept {
  if (!enabled()) return;
  auto& counters = detail::local_state().counters;
  auto& a = counters[static_cast<std::size_t>(c1)];
  a.store(a.load(std::memory_order_relaxed) + d1, std::memory_order_relaxed);
  auto& b = counters[static_cast<std::size_t>(c2)];
  b.store(b.load(std::memory_order_relaxed) + d2, std::memory_order_relaxed);
}

[[nodiscard]] Snapshot snapshot();

#if defined(__x86_64__)
namespace detail {
/// Nanoseconds per TSC tick, measured once at load time against
/// steady_clock (trace.cpp); the TSC is invariant on every x86-64 part
/// this repo targets, so one scale factor holds process-wide.
extern const double g_ns_per_tick;
}  // namespace detail

/// ~8 ns per read (unserialised rdtsc + one multiply) vs ~20 ns for a
/// vDSO clock_gettime -- the clock reads dominate Span cost, so spans on
/// hot paths get 2x cheaper.  Unserialised is fine for observability:
/// a span may absorb a few reordered instructions at its edges.
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      static_cast<double>(__builtin_ia32_rdtsc()) * detail::g_ns_per_tick);
}
#else
[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
#endif

/// Scoped stage timer; cost per open/close pair (two clock reads plus one
/// single-writer histogram record) is measured by bench_e19.
class Span {
 public:
  explicit Span(Stage stage) noexcept
      : stage_(stage), start_(enabled() ? now_ns() : 0) {}
  ~Span() {
    if (start_ == 0) return;
    // The > guard drops the (theoretical) sample where a cross-core TSC
    // skew makes the interval run backwards, instead of recording a
    // wrapped-around near-2^64 duration.
    const std::uint64_t end = now_ns();
    if (end > start_) record_ns(stage_, end - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Stage stage_;
  std::uint64_t start_;
};

#else  // tracing compiled out: every primitive is an empty inline

inline void set_enabled(bool) noexcept {}
[[nodiscard]] inline bool enabled() noexcept { return false; }
inline void record_ns(Stage, std::uint64_t) noexcept {}
inline void count(Counter, std::uint64_t = 1) noexcept {}
inline void count2(Counter, std::uint64_t, Counter, std::uint64_t) noexcept {}
[[nodiscard]] inline Snapshot snapshot() { return {}; }
[[nodiscard]] inline std::uint64_t now_ns() noexcept { return 0; }

class Span {
 public:
  explicit Span(Stage) noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif  // RMTS_TRACING

}  // namespace rmts::trace
