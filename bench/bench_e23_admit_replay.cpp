// E23: in-process replay of the repository benchmark's inputs.  The
// perfbench workloads (perfbench/workloads.cpp, compiled into this binary
// unchanged) are regenerated from their seeds and driven straight into the
// library, single-threaded, with no transport, JSON or thread pool in the
// way:
//
//  * session-churn: one session opened with perfbench's config, filled the
//    way one perfbench connection fills it (admit random pool tasks until
//    16 rejections in a row), then 20,000 churn operations at perfbench's
//    40 % depart share.  The op sequence is recorded on the first pass and
//    replayed on k fresh sessions; every op's time is the best of those k
//    passes.  Admits are split into whole, split and rejected ones.
//  * admit-large and admit-small: Rmts::partition per pooled set, timed as
//    the best of k passes per set; and Router::handle per pooled request
//    line (parse, validation, bound, partition and reply, as a server
//    worker runs it), timed the same way, with the heap allocations each
//    line makes after a warm-up line (a counting global operator new).
//
// Next to the times it reports exact work counts per op from the first
// (counting) pass: RTA iterations, seeded analyses, recomputed cache
// entries, MaxSplit probes and utilization-check rejects; a counter that
// the library does not define reads 0.  An FNV-1a digest over every
// session verdict, ticket and chain length, over every partition's
// placement and over every reply byte, shows that two builds decided the
// same.  The timing passes run with tracing switched off, so the times are
// the library's alone.
//
// Usage: bench_e23_admit_replay [--smoke] [--side NAME] [--seeds A,B,...]
//                               [--reps K]
// `--side` only labels the rows (e.g. a before/after pair of builds);
// `--smoke` shrinks everything to a plumbing check for ctest.  Exits 1 if
// a replay pass decides differently from the counting pass.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "bounds/harmonic.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/trace.hpp"
#include "online/session.hpp"
#include "partition/rmts.hpp"
#include "perfbench.hpp"
#include "server/metrics.hpp"
#include "server/router.hpp"
#include "tasks/task_set.hpp"

namespace {
std::atomic<std::uint64_t> allocations{0};
}  // namespace

// Counts every heap allocation of the process; the handle rows read the
// count around each Router::handle call.  The nothrow forms are replaced
// too (std::stable_sort's buffer uses them), so that every block a
// replaced operator delete frees came from malloc.
void* operator new(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
// Out of line, so GCC's -Wmismatched-new-delete does not see a new
// expression's pointer reach free() and call the pair mismatched.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace rmts;

/// The reported work counts, by trace counter name.
constexpr std::array<std::string_view, 5> kCountNames{
    "admission_rta_iterations", "admission_seeded_rta", "admission_cache_miss",
    "max_split_probes", "admission_utilization_rejects"};
constexpr std::array<const char*, 5> kCountColumns{
    "iterations", "seeded", "recomputed", "maxsplit_probes",
    "utilization_rejects"};
using Counts = std::array<std::uint64_t, kCountNames.size()>;

/// Reads the process's counters through trace::snapshot().  A name the
/// library does not define reads 0.
class CountReader {
 public:
  CountReader() {
    slots_.fill(trace::kCounterCount);
    for (std::size_t k = 0; k < kCountNames.size(); ++k) {
      for (std::size_t c = 0; c < trace::kCounterCount; ++c) {
        if (trace::counter_name(static_cast<trace::Counter>(c)) ==
            kCountNames[k]) {
          slots_[k] = c;
        }
      }
    }
  }

  [[nodiscard]] Counts read() const {
    const trace::Snapshot snapshot = trace::snapshot();
    Counts out{};
    for (std::size_t k = 0; k < slots_.size(); ++k) {
      if (slots_[k] < trace::kCounterCount) out[k] = snapshot.counters[slots_[k]];
    }
    return out;
  }

 private:
  std::array<std::size_t, kCountNames.size()> slots_{};
};

Counts operator-(const Counts& a, const Counts& b) {
  Counts out{};
  for (std::size_t k = 0; k < a.size(); ++k) out[k] = a[k] - b[k];
  return out;
}

Counts& operator+=(Counts& a, const Counts& b) {
  for (std::size_t k = 0; k < a.size(); ++k) a[k] += b[k];
  return a;
}

class Digest {
 public:
  void add(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(std::string_view bytes) noexcept {
    add(bytes.size());
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buffer[24];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buffer;
  }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ULL};
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string fixed(double value, const char* spec = "%.2f") {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), spec, value);
  return buffer;
}

std::size_t pick(Rng& rng, std::size_t size) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
}

/// Mean, p50 and p99 of a set of per-op best times, in microseconds.
struct Summary {
  double mean_us{0.0};
  double p50_us{0.0};
  double p99_us{0.0};
};

Summary summarize(std::vector<std::uint64_t> ns) {
  Summary s;
  if (ns.empty()) return s;
  std::sort(ns.begin(), ns.end());
  double total = 0.0;
  for (const std::uint64_t v : ns) total += static_cast<double>(v);
  const auto at = [&](double q) {
    const auto index = static_cast<std::size_t>(
        q * static_cast<double>(ns.size() - 1) + 0.5);
    return static_cast<double>(ns[index]) / 1e3;
  };
  s.mean_us = total / static_cast<double>(ns.size()) / 1e3;
  s.p50_us = at(0.50);
  s.p99_us = at(0.99);
  return s;
}

std::vector<std::string> count_cells(const Counts& counts, std::size_t ops) {
  std::vector<std::string> cells;
  for (const std::uint64_t c : counts) {
    cells.push_back(fixed(ops == 0 ? 0.0
                                   : static_cast<double>(c) /
                                         static_cast<double>(ops)));
  }
  return cells;
}

std::vector<std::string> header_with_counts(std::vector<std::string> head,
                                            const char* suffix) {
  for (const char* column : kCountColumns) head.push_back(column + std::string(suffix));
  return head;
}

// ------------------------------------------------------- session churn --

struct ChurnStep {
  bool depart{false};
  std::uint32_t task{0};     ///< admit: index into the task pool
  online::Ticket ticket{0};  ///< depart: ticket sent
};

/// What one op decided; a replay must decide the same.
struct Decision {
  bool verdict{false};
  online::Ticket ticket{0};
  std::size_t parts{0};
  friend bool operator==(const Decision&, const Decision&) = default;
};

enum OpClass : std::size_t { kWhole, kSplit, kRejected, kDepart, kClasses };
constexpr std::array<const char*, kClasses> kClassNames{
    "admit_whole", "admit_split", "admit_rejected", "depart"};

Decision run_step(online::PartitionSession& session,
                  const perfbench::ChurnWorkload& workload,
                  const ChurnStep& step) {
  if (step.depart) return Decision{session.depart(step.ticket), step.ticket, 0};
  const auto [wcet, period] = workload.tasks[step.task];
  const online::AdmitResult result = session.admit(wcet, period);
  return Decision{result.admitted, result.ticket, result.parts};
}

OpClass classify(const ChurnStep& step, const Decision& decision) {
  if (step.depart) return kDepart;
  if (!decision.verdict) return kRejected;
  return decision.parts > 1 ? kSplit : kWhole;
}

bool replay_churn(std::uint64_t seed, std::size_t ops, std::size_t reps,
                  const std::string& side, const CountReader& reader,
                  Table& classes, Table& sessions) {
  const perfbench::ChurnWorkload workload = perfbench::make_churn_workload(seed);

  // Counting pass: draws the op sequence exactly as one perfbench
  // connection does (its first connection's stream), and records it.
  std::vector<ChurnStep> fill;
  std::vector<ChurnStep> steps;
  std::vector<Decision> decisions;
  std::array<Counts, kClasses> class_counts{};
  Counts fill_counts{};
  Digest digest;
  online::SessionStats final_stats;
  trace::set_enabled(true);
  {
    online::PartitionSession session(workload.session);
    Rng rng = Rng(seed).fork(0x1000);
    std::vector<online::Ticket> tickets;
    const Counts fill_start = reader.read();
    for (std::size_t streak = 0; streak < workload.fill_reject_streak;) {
      const ChurnStep step{false,
                           static_cast<std::uint32_t>(
                               pick(rng, workload.tasks.size())),
                           0};
      const Decision d = run_step(session, workload, step);
      fill.push_back(step);
      decisions.push_back(d);
      if (d.verdict) tickets.push_back(d.ticket);
      streak = d.verdict ? 0 : streak + 1;
    }
    fill_counts = reader.read() - fill_start;
    for (std::size_t op = 0; op < ops; ++op) {
      ChurnStep step;
      std::size_t slot = 0;
      step.depart = !tickets.empty() && rng.uniform() < workload.depart_fraction;
      if (step.depart) {
        slot = pick(rng, tickets.size());
        step.ticket = tickets[slot];
      } else {
        step.task = static_cast<std::uint32_t>(pick(rng, workload.tasks.size()));
      }
      const Counts before = reader.read();
      const Decision d = run_step(session, workload, step);
      class_counts[classify(step, d)] += reader.read() - before;
      if (step.depart) {
        tickets[slot] = tickets.back();
        tickets.pop_back();
      } else if (d.verdict) {
        tickets.push_back(d.ticket);
      }
      steps.push_back(step);
      decisions.push_back(d);
    }
    for (const Decision& d : decisions) {
      digest.add(d.verdict ? 1U : 0U);
      digest.add(d.ticket);
      digest.add(d.parts);
    }
    final_stats = session.stats();
  }

  // Timing passes: fresh sessions replay the recorded sequence.
  trace::set_enabled(false);
  bool consistent = true;
  std::vector<std::uint64_t> best(steps.size(),
                                  std::numeric_limits<std::uint64_t>::max());
  std::uint64_t best_fill = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t rep = 0; rep < reps && consistent; ++rep) {
    online::PartitionSession session(workload.session);
    const std::uint64_t fill_start = now_ns();
    for (std::size_t i = 0; i < fill.size(); ++i) {
      if (!(run_step(session, workload, fill[i]) == decisions[i])) {
        consistent = false;
      }
    }
    best_fill = std::min(best_fill, now_ns() - fill_start);
    for (std::size_t i = 0; i < steps.size(); ++i) {
      const std::uint64_t start = now_ns();
      const Decision d = run_step(session, workload, steps[i]);
      best[i] = std::min(best[i], now_ns() - start);
      if (!(d == decisions[fill.size() + i])) consistent = false;
    }
  }
  trace::set_enabled(true);

  std::array<std::vector<std::uint64_t>, kClasses> by_class;
  std::vector<std::uint64_t> admits;
  Counts admit_counts{};
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const OpClass c = classify(steps[i], decisions[fill.size() + i]);
    by_class[c].push_back(best[i]);
    if (c != kDepart) admits.push_back(best[i]);
  }
  for (std::size_t c = 0; c < kDepart; ++c) admit_counts += class_counts[c];

  const auto add_class_row = [&](const char* name,
                                 std::vector<std::uint64_t> times,
                                 const Counts& counts) {
    const std::size_t n = times.size();
    const Summary s = summarize(std::move(times));
    std::vector<std::string> row{side, std::to_string(seed), name,
                                 std::to_string(n), fixed(s.mean_us),
                                 fixed(s.p50_us), fixed(s.p99_us)};
    for (std::string& cell : count_cells(counts, n)) row.push_back(std::move(cell));
    classes.add_row(std::move(row));
  };
  add_class_row("admit", admits, admit_counts);
  for (std::size_t c = 0; c < kClasses; ++c) {
    add_class_row(kClassNames[c], by_class[c], class_counts[c]);
  }

  std::vector<std::string> row{
      side, std::to_string(seed), std::to_string(fill.size()),
      fixed(static_cast<double>(best_fill) / 1e6, "%.3f"),
      std::to_string(steps.size()), std::to_string(admit_counts[0]),
      std::to_string(fill_counts[0]), std::to_string(final_stats.resident_tasks),
      fixed(final_stats.utilization, "%.6f"),
      std::to_string(final_stats.migrations_total), digest.hex(),
      consistent ? "yes" : "NO"};
  sessions.add_row(std::move(row));
  return consistent;
}

// ------------------------------------------------------- admit pools --

bool replay_admit(perfbench::Workload which, std::uint64_t seed,
                  std::size_t max_sets, std::size_t reps,
                  const std::string& side, const CountReader& reader,
                  Table& table) {
  const perfbench::AdmitWorkload workload =
      perfbench::make_admit_workload(which, seed);
  // The server's default partitioner: RM-TS with the harmonic-chain bound.
  const Rmts partitioner(std::make_shared<HarmonicChainBound>());
  const std::size_t sets = std::min(max_sets, workload.pool.size());
  std::vector<TaskSet> pool;
  pool.reserve(sets);
  for (std::size_t i = 0; i < sets; ++i) {
    pool.push_back(TaskSet::from_pairs(workload.pool[i].pairs));
  }

  Counts counts{};
  Digest digest;
  std::size_t accepted = 0;
  bool consistent = true;
  trace::set_enabled(true);
  for (std::size_t i = 0; i < sets; ++i) {
    const Counts before = reader.read();
    const Assignment a = partitioner.partition(pool[i], workload.processors);
    counts += reader.read() - before;
    accepted += a.success ? 1 : 0;
    if (a.success != workload.pool[i].accepted) consistent = false;
    digest.add(a.success ? 1U : 0U);
    for (const ProcessorAssignment& processor : a.processors) {
      digest.add(processor.subtasks.size());
      for (const Subtask& s : processor.subtasks) {
        digest.add(s.task_id);
        digest.add(static_cast<std::uint64_t>(s.part));
        digest.add(static_cast<std::uint64_t>(s.wcet));
        digest.add(static_cast<std::uint64_t>(s.deadline));
      }
    }
  }

  trace::set_enabled(false);
  std::vector<std::uint64_t> best(sets, std::numeric_limits<std::uint64_t>::max());
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < sets; ++i) {
      const std::uint64_t start = now_ns();
      const Assignment a = partitioner.partition(pool[i], workload.processors);
      best[i] = std::min(best[i], now_ns() - start);
      if (a.success != workload.pool[i].accepted) consistent = false;
    }
  }
  trace::set_enabled(true);

  const Summary s = summarize(best);
  std::vector<std::string> row{side,
                               std::to_string(seed),
                               perfbench::workload_name(which),
                               std::to_string(sets),
                               std::to_string(accepted),
                               fixed(s.mean_us),
                               fixed(s.p50_us),
                               fixed(s.p99_us)};
  for (std::string& cell : count_cells(counts, sets)) row.push_back(std::move(cell));
  row.push_back(digest.hex());
  row.push_back(consistent ? "yes" : "NO");
  table.add_row(std::move(row));
  return consistent;
}

// ------------------------------------------------------ Router::handle --

bool replay_handle(perfbench::Workload which, std::uint64_t seed,
                   std::size_t max_lines, std::size_t reps,
                   const std::string& side, Table& table) {
  const perfbench::AdmitWorkload workload =
      perfbench::make_admit_workload(which, seed);
  const std::size_t lines = std::min(max_lines, workload.pool.size());
  const server::Metrics metrics;
  const server::Router router(server::RouterConfig{}, metrics);
  trace::set_enabled(false);
  // One warm-up line fills the thread's caches, as a server worker's
  // earlier requests have; the counting pass then sees steady state.
  bool consistent = !router.handle(workload.pool[0].line).error;

  std::vector<std::string> replies(lines);
  std::vector<std::uint64_t> allocated(lines);
  Digest digest;
  for (std::size_t i = 0; i < lines; ++i) {
    const std::uint64_t before = allocations.load(std::memory_order_relaxed);
    server::HandleOutcome outcome = router.handle(workload.pool[i].line);
    allocated[i] = allocations.load(std::memory_order_relaxed) - before;
    if (outcome.error) consistent = false;
    digest.add(outcome.reply);
    replies[i] = std::move(outcome.reply);
  }

  std::vector<std::uint64_t> best(lines, std::numeric_limits<std::uint64_t>::max());
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < lines; ++i) {
      const std::uint64_t start = now_ns();
      const server::HandleOutcome outcome = router.handle(workload.pool[i].line);
      best[i] = std::min(best[i], now_ns() - start);
      if (outcome.reply != replies[i]) consistent = false;
    }
  }
  trace::set_enabled(true);

  std::uint64_t total = 0;
  for (const std::uint64_t a : allocated) total += a;
  const Summary s = summarize(best);
  table.add_row({side, std::to_string(seed), perfbench::workload_name(which),
                 std::to_string(lines), fixed(s.mean_us), fixed(s.p50_us),
                 fixed(s.p99_us),
                 fixed(static_cast<double>(total) / static_cast<double>(lines)),
                 std::to_string(*std::max_element(allocated.begin(), allocated.end())),
                 digest.hex(), consistent ? "yes" : "NO"});
  return consistent;
}

std::vector<std::uint64_t> parse_seeds(const std::string& list) {
  std::vector<std::uint64_t> seeds;
  std::stringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) seeds.push_back(std::stoull(item));
  return seeds;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string side = "this";
  std::vector<std::uint64_t> seeds{1001, 1002, 1003};
  std::size_t reps = 5;
  std::size_t ops = 20'000;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--side" && has_value) {
      side = argv[++i];
    } else if (arg == "--seeds" && has_value) {
      seeds = parse_seeds(argv[++i]);
    } else if (arg == "--reps" && has_value) {
      reps = std::max<std::size_t>(1, std::stoul(argv[++i]));
    } else {
      std::cerr << "usage: bench_e23_admit_replay [--smoke] [--side NAME] "
                   "[--seeds A,B,...] [--reps K]\n";
      return 2;
    }
  }
  std::size_t large_sets = std::numeric_limits<std::size_t>::max();
  std::size_t small_sets = std::numeric_limits<std::size_t>::max();
  if (smoke) {
    seeds = {1001};
    reps = 1;
    ops = 1'000;
    large_sets = 32;
    small_sets = 64;
  }

  bench::banner(
      "E23 admit replay",
      "the admission path's cost per op, in process, with exact work counts "
      "and a digest of every decision",
      "perfbench's seeded inputs: session-churn (M = 8, one session filled, "
      "then churn at 40 % departs) and the admit-large / admit-small pools "
      "through Rmts::partition and Router::handle; best of k passes per op");

  const CountReader reader;
  Table classes(header_with_counts(
      {"side", "seed", "class", "ops", "mean_us", "p50_us", "p99_us"},
      "_per_op"));
  Table sessions({"side", "seed", "fill_ops", "fill_ms", "churn_ops",
                  "admit_iterations", "fill_iterations", "residents",
                  "utilization", "migrations", "digest", "replay_identical"});
  std::vector<std::string> admit_header = header_with_counts(
      {"side", "seed", "workload", "sets", "accepted", "mean_us", "p50_us",
       "p99_us"},
      "_per_set");
  admit_header.insert(admit_header.end(), {"digest", "replay_identical"});
  Table admits(std::move(admit_header));
  Table handles({"side", "seed", "workload", "lines", "mean_us", "p50_us",
                 "p99_us", "allocations_per_line", "allocations_max",
                 "reply_digest", "replay_identical"});
  bool consistent = true;
  for (const std::uint64_t seed : seeds) {
    consistent = replay_churn(seed, ops, reps, side, reader, classes, sessions) &&
                 consistent;
    consistent = replay_admit(perfbench::Workload::kAdmitLarge, seed,
                              large_sets, reps, side, reader, admits) &&
                 consistent;
    consistent = replay_admit(perfbench::Workload::kAdmitSmall, seed,
                              small_sets, reps, side, reader, admits) &&
                 consistent;
    consistent = replay_handle(perfbench::Workload::kAdmitLarge, seed,
                               large_sets, reps, side, handles) &&
                 consistent;
    consistent = replay_handle(perfbench::Workload::kAdmitSmall, seed,
                               small_sets, reps, side, handles) &&
                 consistent;
  }
  classes.print_text(std::cout, "E23: session-churn ops, best of k per op");
  sessions.print_text(std::cout, "E23: session-churn sessions");
  admits.print_text(std::cout, "E23: Rmts::partition per pooled set");
  handles.print_text(std::cout,
                     "E23: Router::handle per pooled admit line, best of k");

  bench::JsonReport report(
      "e23",
      "in-process replay of perfbench's seeded inputs: session-churn ops, "
      "Rmts::partition per pooled set and Router::handle per pooled admit "
      "line, best of k passes per op, with exact work counts and "
      "allocations from a counting pass and a digest of every decision");
  report.add_table("churn", classes);
  report.add_table("sessions", sessions);
  report.add_table("admit", admits);
  report.add_table("handle", handles);
  report.write();

  if (!consistent) {
    std::cerr << "bench_e23: a replay decided differently from the counting "
                 "pass (or from perfbench's reference verdict)\n";
    return 1;
  }
  return 0;
}
