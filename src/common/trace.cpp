#include "common/trace.hpp"

#include <algorithm>
#include <memory>
#include <mutex>
#include <vector>

namespace rmts::trace {

std::string_view stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::kServerDecode: return "server_decode";
    case Stage::kServerQueueWait: return "server_queue_wait";
    case Stage::kServerCompute: return "server_compute";
    case Stage::kServerWrite: return "server_write";
    case Stage::kRouterAdmit: return "router_admit";
    case Stage::kRouterAnalyze: return "router_analyze";
    case Stage::kRouterRobustness: return "router_robustness";
    case Stage::kRouterSimulate: return "router_simulate";
    case Stage::kRouterStats: return "router_stats";
    case Stage::kRouterMetrics: return "router_metrics";
    case Stage::kRouterSession: return "router_session";
    case Stage::kPoolTaskWait: return "pool_task_wait";
    case Stage::kPoolTaskRun: return "pool_task_run";
    case Stage::kPartitionDedicate: return "partition_dedicate";
    case Stage::kPartitionPreassign: return "partition_preassign";
    case Stage::kPartitionPlace: return "partition_place";
    case Stage::kSimRun: return "sim_run";
  }
  return "unknown";
}

std::string_view counter_name(Counter counter) noexcept {
  switch (counter) {
    case Counter::kAdmissionCacheHit: return "admission_cache_hit";
    case Counter::kAdmissionCacheMiss: return "admission_cache_miss";
    case Counter::kAdmissionSeededRta: return "admission_seeded_rta";
    case Counter::kAdmissionRtaIterations: return "admission_rta_iterations";
    case Counter::kPoolTasksPosted: return "pool_tasks_posted";
    case Counter::kPoolTasksStarted: return "pool_tasks_started";
    case Counter::kPartitionRuns: return "partition_runs";
    case Counter::kSimRuns: return "sim_runs";
    case Counter::kSimEvents: return "sim_events";
    case Counter::kMaxSplitCalls: return "max_split_calls";
    case Counter::kMaxSplitProbes: return "max_split_probes";
    case Counter::kAdmissionUtilizationRejects:
      return "admission_utilization_rejects";
  }
  return "unknown";
}

#if RMTS_TRACING

namespace {

/// Owns every ThreadState ever created.  Deliberately leaked (never
/// destroyed) so a worker thread outliving static destruction -- e.g. the
/// process-wide ThreadPool joining at exit -- can still record safely.
struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<detail::ThreadState>> states;
};

Registry& registry() noexcept {
  static Registry* instance = new Registry;  // intentionally leaked
  return *instance;
}

}  // namespace

namespace detail {

thread_local ThreadState* t_state = nullptr;

std::atomic<bool> g_enabled{true};

#if defined(__x86_64__)
namespace {
[[nodiscard]] std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

/// One-shot load-time calibration: spin ~2 ms and take the ratio of
/// elapsed steady_clock time to elapsed TSC ticks.  A 2 ms window bounds
/// the scale error well under 0.1%, far below the histogram's 3.1%
/// bucket precision.
const double g_ns_per_tick = [] {
  const std::uint64_t t0 = steady_ns();
  const std::uint64_t c0 = __builtin_ia32_rdtsc();
  while (steady_ns() - t0 < 2'000'000) {
  }
  const std::uint64_t t1 = steady_ns();
  const std::uint64_t c1 = __builtin_ia32_rdtsc();
  return static_cast<double>(t1 - t0) / static_cast<double>(c1 - c0);
}();
#endif

ThreadState& register_thread() {
  auto owned = std::make_unique<ThreadState>();
  ThreadState* raw = owned.get();
  Registry& reg = registry();
  {
    const std::scoped_lock lock(reg.mutex);
    reg.states.push_back(std::move(owned));
  }
  t_state = raw;
  return *raw;
}

}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

Snapshot snapshot() {
  Snapshot out;
  Registry& reg = registry();
  const std::scoped_lock lock(reg.mutex);
  out.threads = reg.states.size();
  for (const auto& state : reg.states) {
    for (std::size_t s = 0; s < kStageCount; ++s) {
      const detail::StageCell& cell = state->cells[s];
      StageSnapshot& stage = out.stages[s];
      stage.count += cell.count.load(std::memory_order_relaxed);
      stage.total_ns += cell.total_ns.load(std::memory_order_relaxed);
      stage.max_ns =
          std::max(stage.max_ns, cell.max_ns.load(std::memory_order_relaxed));
      stage.latency_ns.merge(state->stages[s].snapshot());
    }
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      out.counters[c] +=
          state->counters[c].load(std::memory_order_relaxed);
    }
  }
  return out;
}

#endif  // RMTS_TRACING

}  // namespace rmts::trace
