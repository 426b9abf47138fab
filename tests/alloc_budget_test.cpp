// Heap-allocation budget of one admit: a counting global operator new
// measures what Router::handle allocates for an admit line, after a
// warm-up call has filled every per-thread cache, and holds it at or
// under the budget recorded when the partitioners took their processors
// from a per-thread workspace (after the JSON document went flat, replies
// went to to_chars and the chain matching went to bitsets).  A change
// that allocates per processor, per value, per number or per matching
// attempt again fails here before it shows up as lost throughput.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/rng.hpp"
#include "server/client.hpp"
#include "server/metrics.hpp"
#include "server/router.hpp"
#include "tasks/task_set.hpp"
#include "workload/generators.hpp"

namespace {
std::atomic<std::size_t> allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// Out of line, so GCC's -Wmismatched-new-delete does not see a new
// expression's pointer reach free() and call the pair mismatched.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rmts::server {
namespace {

/// Allocations one Router::handle(line) makes once warmed up.
std::size_t allocations_per_handle(const std::string& line) {
  const Metrics metrics;
  const Router router(RouterConfig{}, metrics);
  EXPECT_FALSE(router.handle(line).error);
  const std::size_t before = allocations.load(std::memory_order_relaxed);
  const HandleOutcome outcome = router.handle(line);
  const std::size_t after = allocations.load(std::memory_order_relaxed);
  EXPECT_FALSE(outcome.error) << outcome.reply;
  return after - before;
}

std::string admit_line(std::size_t tasks, std::size_t processors,
                       double normalized_utilization) {
  WorkloadConfig config;
  config.tasks = tasks;
  config.processors = processors;
  config.normalized_utilization = normalized_utilization;
  Rng rng(1);
  return make_admit_request(processors, generate(rng, config));
}

// Shaped like the admit-large benchmark pool: N=64 on M=16, near the
// acceptance cliff.  759 allocations before the flat document, 427 before
// the per-thread partition workspace.
TEST(AllocationBudget, AdmitLargeShapedLine) {
  EXPECT_LE(allocations_per_handle(admit_line(64, 16, 0.94)), 48U);
}

// Shaped like admit-small: N=16 on M=4 at U_M=0.6.  201 before the flat
// document, 111 before the workspace.
TEST(AllocationBudget, AdmitSmallShapedLine) {
  EXPECT_LE(allocations_per_handle(admit_line(16, 4, 0.6)), 33U);
}

// A larger admit on the same thread (M=64, N=256) leaves the workspace
// bigger than an admit-large line needs; the extra processors stay out of
// view, so the line still meets its budget.
TEST(AllocationBudget, AdmitLargeShapedLineAfterALargerAdmit) {
  const Metrics metrics;
  const Router router(RouterConfig{}, metrics);
  EXPECT_FALSE(router.handle(admit_line(256, 64, 0.9)).error);
  EXPECT_LE(allocations_per_handle(admit_line(64, 16, 0.94)), 48U);
}

}  // namespace
}  // namespace rmts::server
