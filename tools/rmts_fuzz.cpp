// Time-bounded randomized cross-validation harness ("the fuzzer"):
// generates random workloads, runs every partitioning algorithm, and
// checks each accepted assignment against the discrete-event simulator
// plus the structural invariants -- including the fault-injection layer:
//
//  * every simulated run is cross-checked bit-for-bit (counters, misses,
//    trace) against the naive reference core (sim/simulator_reference.hpp);
//  * identity faults (factor 1.0, no jitter) must reproduce the nominal
//    run counter-for-counter;
//  * random overruns under budget enforcement must never cause a miss
//    (only degradations/aborts);
//  * under priority demotion every missing task must itself have
//    overrun (misses are attributable);
//  * processor failure must be contained to orphan accounting, not
//    crashes;
//  * periodically, the analytic robustness margins must not exceed the
//    simulated ones (analysis/robustness.hpp soundness).
//
//   rmts_fuzz [seconds=10] [seed=1]
//   rmts_fuzz proto [seconds=10] [seed=1]
//   rmts_fuzz kernel [seconds=10] [seed=1]
//   rmts_fuzz churn [seconds=10] [seed=1]
//
// The `proto` mode fuzzes the admission-control service's codec instead:
// random, truncated, mutated and oversized byte streams are fed through
// the in-process LineDecoder + Router pipeline (no sockets), asserting
// that nothing crashes, decoder memory stays under its cap, and every
// reply -- including those for garbage -- is a well-formed one-line JSON
// object carrying "ok" and, on failure, a non-empty "error".  Every line
// and every reply is also parsed by the tree-of-values oracle
// (tests/oracle/json_tree.hpp), which must agree with the shipped parser
// on the verdict, the error text and every parsed value.
//
// The `churn` mode drives random admit/depart/rebalance interleavings
// through an online PartitionSession (src/online) and checks, after every
// operation, that no resident task is ever un-admitted (the harness's own
// ticket ledger must match session.residents() exactly) and that the
// utilization accounting balances; periodically -- and at the end of every
// interleaving -- it re-derives full structural + exact-RTA invariants
// from scratch (the differential against the incremental cached path) and
// batch re-partitions the live resident set with RmtsLight to sanity-check
// the online packing against the paper's from-scratch partitioner.
//
// The `kernel` mode differentially fuzzes the SoA RTA kernel
// (rta/rta_kernel.hpp) against the checked scalar path: random hosted
// sets -- including overflow-scale parameters that straddle the 2^31
// fast-path boundary -- must produce bit-identical analysis outcomes,
// admission verdicts and response times through kernel_analyze,
// ProcessorState::fits/fits_batch and kernel_jitter_response, with the
// SoA mirror staying consistent under any incremental insertion order;
// add() of the candidate fits() just passed (which commits the probe's
// responses) and of one it did not must both leave every cached response
// equal to scalar RTA, and so must one remove() after them (the re-warm
// seeded by the predecessor bound); and each drawn processor's MaxSplit (the
// per-constraint search) must equal the scheduling-point oracle from
// tests/oracle/.
//
// On violation the exact seed/attempt and fault configuration are printed
// and the offending task set is written to
// rmts_fuzz_violation_<seed>_<attempt>.txt, so any failure replays with
// `rmts_fuzz <any> <seed>` or from the dumped file.  Exit code 0 iff no
// violation found.  This is the long-running counterpart of the bounded
// soundness tests in tests/ -- run it for an hour before a release.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/robustness.hpp"
#include "bounds/best_of.hpp"
#include "bounds/bound.hpp"
#include "common/checked_math.hpp"
#include "common/rng.hpp"
#include "io/taskset_io.hpp"
#include "online/session.hpp"
#include "oracle/json_differential.hpp"
#include "oracle/max_split_points.hpp"
#include "partition/baselines.hpp"
#include "partition/edf_split.hpp"
#include "partition/max_split.hpp"
#include "partition/processor_state.hpp"
#include "partition/rmts.hpp"
#include "partition/rmts_light.hpp"
#include "partition/spa.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/router.hpp"
#include "rta/rta.hpp"
#include "rta/rta_kernel.hpp"
#include "sim/simulator.hpp"
#include "sim/simulator_reference.hpp"
#include "workload/generators.hpp"

namespace {

using namespace rmts;

struct Entry {
  std::shared_ptr<const Partitioner> algorithm;
  DispatchPolicy policy;
  /// Whether accepted => schedulable is claimed unconditionally (exact
  /// admission) or only within the algorithm's theorem premises (SPA).
  bool unconditional;
};

struct Reporter {
  std::uint64_t seed;
  std::uint64_t attempt = 0;
  std::uint64_t violations = 0;

  /// Prints the reproduction context and dumps the task set to a file.
  void violation(const std::string& what, const TaskSet& tasks,
                 const Assignment& assignment, const FaultModel& faults) {
    ++violations;
    std::cerr << "VIOLATION: " << what << "\n  repro: seed " << seed
              << ", attempt " << attempt << "\n  faults: factor "
              << faults.overrun_factor << ", ticks " << faults.overrun_ticks
              << ", prob " << faults.overrun_probability << ", jitter "
              << faults.release_jitter << ", fault-seed " << faults.seed
              << ", containment " << static_cast<int>(faults.containment)
              << ", failed-proc ";
    if (faults.failed_processor == kNoProcessor) {
      std::cerr << "none";
    } else {
      std::cerr << faults.failed_processor << "@" << faults.failure_time;
    }
    std::cerr << '\n' << tasks.describe() << assignment.describe();
    const std::string path = "rmts_fuzz_violation_" + std::to_string(seed) +
                             "_" + std::to_string(attempt) + ".txt";
    std::ofstream dump(path);
    if (dump) {
      write_task_set(dump, tasks);
      std::cerr << "  task set written to " << path << '\n';
    }
  }
};

bool counters_equal(const SimResult& a, const SimResult& b) {
  return a.schedulable == b.schedulable && a.misses.size() == b.misses.size() &&
         a.simulated_until == b.simulated_until && a.events == b.events &&
         a.jobs_released == b.jobs_released &&
         a.jobs_completed == b.jobs_completed &&
         a.preemptions == b.preemptions && a.migrations == b.migrations &&
         a.busy_time == b.busy_time && a.max_response == b.max_response &&
         a.jobs_degraded == b.jobs_degraded &&
         a.degraded_per_task == b.degraded_per_task &&
         a.jobs_aborted == b.jobs_aborted && a.jobs_demoted == b.jobs_demoted &&
         a.subtasks_orphaned == b.subtasks_orphaned;
}

/// In-process protocol fuzz: random byte streams through the service
/// codec.  Returns the number of violations found.
std::uint64_t proto_fuzz(double seconds, std::uint64_t seed) {
  constexpr std::size_t kMaxLine = 4096;  // small cap => oversized paths hit
  server::Metrics metrics;
  server::RouterConfig router_config;
  router_config.max_tasks = 64;
  router_config.max_processors = 16;
  router_config.sim_horizon_cap = 200'000;
  const server::Router router(router_config, metrics);

  // A small pool of valid requests used as mutation seeds.
  Rng pool_rng(seed);
  std::vector<std::string> valid;
  for (std::size_t i = 0; i < 16; ++i) {
    Rng sample = pool_rng.fork(i);
    WorkloadConfig config;
    config.tasks = 8;
    config.processors = 4;
    config.normalized_utilization = 0.5;
    const TaskSet tasks = generate(sample, config);
    switch (i % 4) {
      case 0: valid.push_back(server::make_admit_request(4, tasks)); break;
      case 1: valid.push_back(server::make_analyze_request(4, tasks)); break;
      case 2: valid.push_back(server::make_simulate_request(4, tasks)); break;
      default: valid.push_back(server::make_stats_request()); break;
    }
  }

  Rng rng(seed ^ 0x70726f746fULL);  // "proto"
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t attempts = 0;
  std::uint64_t lines = 0;
  std::uint64_t oversized = 0;
  std::uint64_t violations = 0;
  const auto fail = [&](const std::string& what, const std::string& detail) {
    ++violations;
    std::cerr << "PROTO VIOLATION: " << what << "\n  repro: seed " << seed
              << ", attempt " << attempts << "\n  detail: " << detail << '\n';
  };

  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
             .count() < seconds) {
    Rng sample = rng.fork(attempts++);
    server::LineDecoder decoder(kMaxLine);

    // Compose a stream of ~8 segments: garbage, mutated/truncated valid
    // requests, oversized runs, and pristine requests.
    std::string stream;
    const auto segments = static_cast<std::size_t>(sample.uniform_int(1, 8));
    for (std::size_t s = 0; s < segments; ++s) {
      switch (sample.uniform_int(0, 4)) {
        case 0: {  // raw random bytes (newlines included by chance)
          const auto n = static_cast<std::size_t>(sample.uniform_int(0, 256));
          for (std::size_t i = 0; i < n; ++i) {
            stream.push_back(static_cast<char>(sample.uniform_int(0, 255)));
          }
          stream.push_back('\n');
          break;
        }
        case 1: {  // a valid request with random byte flips
          std::string line = valid[static_cast<std::size_t>(
              sample.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1))];
          const auto flips = static_cast<std::size_t>(sample.uniform_int(0, 8));
          for (std::size_t i = 0; i < flips && !line.empty(); ++i) {
            const auto at = static_cast<std::size_t>(sample.uniform_int(
                0, static_cast<std::int64_t>(line.size()) - 1));
            line[at] = static_cast<char>(sample.uniform_int(1, 255));
          }
          if (line.find('\n') != std::string::npos) {
            line.erase(line.find('\n'));  // keep it one line
          }
          stream += line;
          stream.push_back('\n');
          break;
        }
        case 2: {  // truncated valid request
          const std::string& line = valid[static_cast<std::size_t>(
              sample.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1))];
          const auto keep = static_cast<std::size_t>(
              sample.uniform_int(0, static_cast<std::int64_t>(line.size())));
          stream += line.substr(0, keep);
          stream.push_back('\n');
          break;
        }
        case 3: {  // oversized line (over the decoder cap)
          const auto n = kMaxLine + static_cast<std::size_t>(
                                        sample.uniform_int(1, 4096));
          stream.append(n, 'x');
          stream.push_back('\n');
          break;
        }
        default: {  // pristine valid request
          stream += valid[static_cast<std::size_t>(
              sample.uniform_int(0, static_cast<std::int64_t>(valid.size()) - 1))];
          stream.push_back('\n');
          break;
        }
      }
    }

    // Feed in random fragments, draining after each, like a TCP stream.
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const auto chunk = static_cast<std::size_t>(sample.uniform_int(
          1, static_cast<std::int64_t>(stream.size() - offset)));
      decoder.feed(std::string_view(stream).substr(offset, chunk));
      offset += chunk;
      if (decoder.buffered() > kMaxLine) {
        fail("decoder memory exceeded its cap",
             "buffered " + std::to_string(decoder.buffered()));
      }

      server::LineDecoder::Line line;
      while (decoder.next(line)) {
        ++lines;
        const server::HandleOutcome outcome =
            line.oversized ? router.oversized_line() : router.handle(line.text);
        if (line.oversized) ++oversized;

        // The shipped parser must read every line and reply exactly as
        // the tree-of-values oracle does.
        for (const std::string& text : {line.text, outcome.reply}) {
          const std::string mismatch = oracle::json_parse_mismatch(text);
          if (!mismatch.empty()) {
            fail("JSON parser disagrees with the oracle: " + mismatch, text);
          }
        }

        // Every reply, for any input, must be one well-formed JSON object
        // with a bool "ok"; failures must carry a non-empty "error".
        server::JsonValue reply;
        std::string parse_error;
        if (outcome.reply.find('\n') != std::string::npos) {
          fail("reply contains a newline", outcome.reply);
        } else if (!server::json_parse(outcome.reply, reply, parse_error)) {
          fail("reply is not valid JSON: " + parse_error, outcome.reply);
        } else if (!reply.is_object()) {
          fail("reply is not a JSON object", outcome.reply);
        } else {
          const server::JsonValue* ok = reply.find("ok");
          if (ok == nullptr || !ok->is_bool()) {
            fail("reply lacks a bool \"ok\"", outcome.reply);
          } else if (!ok->as_bool()) {
            const server::JsonValue* error = reply.find("error");
            if (error == nullptr || !error->is_string() ||
                error->as_string().empty()) {
              fail("failure reply lacks a non-empty \"error\"", outcome.reply);
            }
            if (!outcome.error) {
              fail("ok:false reply not recorded as an error", outcome.reply);
            }
          }
        }
      }
    }
  }

  std::cout << "rmts_fuzz proto: " << attempts << " streams, " << lines
            << " lines (" << oversized << " oversized), " << violations
            << " violations (seed " << seed << ")\n";
  return violations;
}

// ------------------------------------------------ kernel differential --

/// The scalar path's documented fits() semantics, materialized naively:
/// the candidate under its higher-priority prefix, then every
/// lower-priority hosted subtask with the candidate appended to its
/// interferer set -- all through the checked scalar response_time, no
/// seeds, no caches.  Ground truth for the kernel's admission verdicts.
bool oracle_fits(std::span<const Subtask> subtasks, const Subtask& candidate,
                 RtaOutcome& own) {
  const auto pos_it = std::lower_bound(
      subtasks.begin(), subtasks.end(), candidate,
      [](const Subtask& a, const Subtask& b) { return a.priority < b.priority; });
  const auto pos = static_cast<std::size_t>(pos_it - subtasks.begin());
  own = response_time(candidate.wcet, candidate.deadline, subtasks.first(pos));
  if (!own.schedulable) return false;
  for (std::size_t i = pos; i < subtasks.size(); ++i) {
    std::vector<Subtask> hp(subtasks.begin(),
                            subtasks.begin() + static_cast<std::ptrdiff_t>(i));
    hp.push_back(candidate);
    const RtaOutcome out =
        response_time(subtasks[i].wcet, subtasks[i].deadline, hp);
    if (!out.schedulable) return false;
  }
  return true;
}

/// Replica of the pre-kernel robustness jitter fixed point (saturating
/// interference, overflow conflated with kTimeInfinity) -- the value
/// contract kernel_jitter_response promises to keep.
std::optional<Time> oracle_jitter(Time wcet, Time bound,
                                  std::span<const Subtask> hp, Time jitter) {
  const auto sat_add = [](Time a, Time b) noexcept {
    const auto sum = checked_add(a, b);
    return sum ? *sum : kTimeInfinity;
  };
  const auto sat_interference = [&](Time t) noexcept {
    const auto demand = oracle::interference_at(t, hp);
    return demand ? *demand : kTimeInfinity;
  };
  if (wcet > bound) return std::nullopt;
  Time r = sat_add(wcet, sat_interference(sat_add(wcet, jitter)));
  while (r <= bound) {
    const Time next = sat_add(wcet, sat_interference(sat_add(r, jitter)));
    if (next == r) return r;
    r = next;
  }
  return std::nullopt;
}

/// One random subtask.  Realistic draws stay well inside the kernel's
/// no-overflow fast path; overflow-scale draws straddle the 2^31 boundary
/// (including exactly 2^31 +- a few) and reach kTimeInfinity/4 so every
/// probe also exercises the checked scalar fallback and the saturating
/// prefix sums.
Subtask random_kernel_subtask(Rng& rng, std::size_t priority,
                              bool overflow_scale) {
  Subtask s;
  s.priority = priority;
  s.task_id = static_cast<TaskId>(priority);
  if (overflow_scale && rng.uniform_int(0, 1) == 0) {
    const Time boundary = Time{1} << 31;
    s.period = rng.uniform_int(0, 1) == 0
                   ? std::max<Time>(1, boundary + rng.uniform_int(-4, 4))
                   : rng.uniform_int(1, kTimeInfinity / 4);
    s.wcet = rng.uniform_int(0, 1) == 0 ? rng.uniform_int(1, s.period)
                                        : std::max<Time>(1, boundary - 2 +
                                                                rng.uniform_int(0, 4));
  } else {
    s.period = rng.uniform_int(1, 1'000'000);
    s.wcet = rng.uniform_int(1, s.period);
  }
  s.deadline = rng.uniform_int(1, s.period);
  return s;
}

/// Upper estimate of the testing points the scheduling-point MaxSplit
/// oracle enumerates for `prototype` on `hosted`: D/T per (subject,
/// interferer) pair, the prototype counted as an interferer of every
/// lower-ranked host.  Saturates in double, so it never overflows.
double testing_points(std::span<const Subtask> hosted, const Subtask& prototype) {
  const auto ratio = [](Time deadline, Time period) {
    return static_cast<double>(deadline) / static_cast<double>(period);
  };
  double points = 0.0;
  for (std::size_t i = 0; i < hosted.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      points += ratio(hosted[i].deadline, hosted[j].period);
    }
    if (hosted[i].priority < prototype.priority) {
      points += ratio(prototype.deadline, hosted[i].period);
    } else {
      points += ratio(hosted[i].deadline, prototype.period);
    }
  }
  return points;
}
constexpr double kMaxOraclePoints = 1 << 16;

/// Differential fuzz of the SoA kernel against the scalar path.  Returns
/// the number of violations found.
std::uint64_t kernel_fuzz(double seconds, std::uint64_t seed) {
  Rng rng(seed ^ 0x6b65726e656cULL);  // "kernel"
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t attempts = 0;
  std::uint64_t probes = 0;
  std::uint64_t max_splits = 0;
  std::uint64_t adds = 0;
  std::uint64_t removals = 0;
  std::uint64_t violations = 0;
  const auto fail = [&](const std::string& what) {
    ++violations;
    std::cerr << "KERNEL VIOLATION: " << what << "\n  repro: seed " << seed
              << ", attempt " << attempts - 1 << '\n';
  };

  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
             .count() < seconds) {
    Rng sample = rng.fork(attempts++);
    const bool overflow_scale = sample.uniform_int(0, 5) == 0;
    const auto n = static_cast<std::size_t>(sample.uniform_int(0, 10));
    std::vector<Subtask> subtasks;
    subtasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      subtasks.push_back(random_kernel_subtask(sample, i, overflow_scale));
    }

    // (a) A rebuilt mirror is consistent, and kernel_analyze (the routed
    // analyze_processor) agrees bit-for-bit with per-prefix scalar RTA.
    RtaSoa soa;
    soa.assign(subtasks);
    if (!soa.mirrors(subtasks)) fail("assign() mirror inconsistent");
    const ProcessorRta kernel = kernel_analyze(subtasks);
    {
      bool schedulable = true;
      std::size_t first_miss = n;
      for (std::size_t i = 0; i < n; ++i) {
        const auto hp = std::span<const Subtask>(subtasks).first(i);
        const RtaOutcome out =
            response_time(subtasks[i].wcet, subtasks[i].deadline, hp);
        if (!out.schedulable) {
          schedulable = false;
          first_miss = i;
          break;
        }
        if (kernel.response[i] != out.response) {
          fail("kernel_analyze response diverged at index " +
               std::to_string(i));
        }
      }
      if (kernel.schedulable != schedulable || kernel.first_miss != first_miss) {
        fail("kernel_analyze verdict diverged from scalar per-prefix RTA");
      }
    }

    // (b) Seeded and with-extra twins at a random prefix are bit-identical
    // to the scalar functions under the same (valid) seed.
    if (n > 0) {
      const auto i = static_cast<std::size_t>(
          sample.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const Subtask probe = subtasks[i];
      const auto hp = std::span<const Subtask>(subtasks).first(i);
      const Time seed_value = sample.uniform_int(0, probe.wcet);
      const RtaOutcome ks = kernel_response_time(
          subtasks, soa, i, probe.wcet, probe.deadline, seed_value);
      const RtaOutcome ss =
          response_time_seeded(probe.wcet, probe.deadline, hp, seed_value);
      if (ks.schedulable != ss.schedulable || ks.response != ss.response) {
        fail("kernel_response_time diverged from response_time_seeded");
      }
      const Subtask extra = random_kernel_subtask(
          sample, static_cast<std::size_t>(sample.uniform_int(0, 20)),
          overflow_scale);
      const RtaOutcome kw = kernel_response_time_with(
          subtasks, soa, i, probe.wcet, probe.deadline, extra, seed_value);
      const RtaOutcome sw = response_time_with(probe.wcet, probe.deadline, hp,
                                               extra, seed_value);
      if (kw.schedulable != sw.schedulable || kw.response != sw.response) {
        fail("kernel_response_time_with diverged from response_time_with");
      }
    }

    // (c) Incremental mirror maintenance: inserting the subtasks in a
    // random order at their priority positions must leave the mirror
    // indistinguishable from a rebuild at every step.
    std::vector<Subtask> shuffled = subtasks;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          sample.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(shuffled[i - 1], shuffled[j]);
    }
    {
      RtaSoa incremental;
      std::vector<Subtask> hosted;
      for (const Subtask& s : shuffled) {
        const auto pos_it = std::lower_bound(
            hosted.begin(), hosted.end(), s,
            [](const Subtask& a, const Subtask& b) {
              return a.priority < b.priority;
            });
        const auto pos = static_cast<std::size_t>(pos_it - hosted.begin());
        hosted.insert(pos_it, s);
        incremental.insert(pos, s);
        if (!incremental.mirrors(hosted)) {
          fail("insert() mirror inconsistent after " +
               std::to_string(hosted.size()) + " insertions");
          break;
        }
      }
    }

    // (d) Admission: fits() (kernel-routed, seeded from the memoized
    // cache) and fits_batch() agree with the naive scalar oracle on the
    // verdict AND the candidate's reported response, and the verdict is
    // independent of the add() order that built the processor.
    ProcessorState in_order;
    for (const Subtask& s : subtasks) in_order.add(s);
    ProcessorState shuffled_order;
    for (const Subtask& s : shuffled) shuffled_order.add(s);

    const auto k = static_cast<std::size_t>(sample.uniform_int(1, 4));
    std::vector<Subtask> candidates;
    candidates.reserve(k);
    for (std::size_t c = 0; c < k; ++c) {
      candidates.push_back(random_kernel_subtask(
          sample, static_cast<std::size_t>(sample.uniform_int(0, 20)),
          overflow_scale));
    }
    std::vector<KernelFit> verdicts(candidates.size());
    in_order.fits_batch(candidates, verdicts);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      ++probes;
      RtaOutcome own;
      const bool expected = oracle_fits(subtasks, candidates[c], own);
      if (in_order.fits(candidates[c]) != expected) {
        fail("fits() diverged from the scalar oracle");
      }
      if (shuffled_order.fits(candidates[c]) != expected) {
        fail("fits() verdict depends on add() order");
      }
      if (verdicts[c].fits != expected) {
        fail("fits_batch() diverged from the scalar oracle");
      }
      if (expected && verdicts[c].response != own.response) {
        fail("fits_batch() candidate response diverged from scalar RTA");
      }
    }

    // (d') Commit: add() of the candidate the last fits() passed inserts
    // that probe's responses as exact cache entries; add() of a candidate
    // other than the last one probed must re-derive them instead.  After
    // each add every cached response equals per-prefix scalar RTA.
    std::vector<Subtask> hosted = subtasks;
    const auto add_and_check = [&](const Subtask& s, const char* what) {
      ++adds;
      in_order.add(s);
      hosted.insert(std::lower_bound(hosted.begin(), hosted.end(), s,
                                     [](const Subtask& a, const Subtask& b) {
                                       return a.priority < b.priority;
                                     }),
                    s);
      for (std::size_t i = 0; i < hosted.size(); ++i) {
        const auto hp = std::span<const Subtask>(hosted).first(i);
        const RtaOutcome out =
            response_time(hosted[i].wcet, hosted[i].deadline, hp);
        if (out.schedulable && in_order.response_time_of(i) != out.response) {
          fail(std::string(what) + ": cached response diverged at index " +
               std::to_string(i));
          break;
        }
      }
    };
    for (const Subtask& passed : candidates) {
      RtaOutcome own;
      if (!oracle_fits(hosted, passed, own)) continue;
      if (!in_order.fits(passed)) fail("fits() rejected an oracle-fitting candidate");
      add_and_check(passed, "add() of the last passing probe");
      break;
    }
    {
      // A fitting candidate (halve its wcet until the oracle admits it),
      // added after a probe of a different candidate -- the same one one
      // tick heavier, so a commit of the wrong probe shows.
      Subtask other = random_kernel_subtask(
          sample, static_cast<std::size_t>(sample.uniform_int(0, 20)),
          overflow_scale);
      RtaOutcome own;
      while (other.wcet > 1 && !oracle_fits(hosted, other, own)) other.wcet /= 2;
      if (oracle_fits(hosted, other, own)) {
        Subtask probed = other;
        ++probed.wcet;
        (void)in_order.fits(probed);
        add_and_check(other, "add() of a candidate not the last probed");
      }
    }

    // (d'') Removal: remove() re-seeds the suffix from wcets and the next
    // warm() lifts each seed to the predecessor bound R_{i-1} + C_i; after
    // one random removal every cached response (misses included, read
    // through kernel_view() since response_time_of() is for admitted
    // subtasks) and every response_time_of() of a schedulable entry
    // equals per-prefix scalar RTA.
    // Then a one-tick subtask joins at the bottom with its exact response
    // as deadline: its re-warm starts from R_{n-1} + 1, which is usually
    // already the answer, so a seed one tick too high would read a miss.
    const auto check_cached = [&](const std::string& what) {
      const auto cached = in_order.kernel_view().responses;
      for (std::size_t i = 0; i < hosted.size(); ++i) {
        const auto hp = std::span<const Subtask>(hosted).first(i);
        const RtaOutcome out =
            response_time(hosted[i].wcet, hosted[i].deadline, hp);
        const Time expected = out.schedulable ? out.response : kTimeInfinity;
        if (cached[i] != expected ||
            (out.schedulable && in_order.response_time_of(i) != expected)) {
          fail(what + ": cached response diverged at index " +
               std::to_string(i));
          return;
        }
      }
    };
    if (!hosted.empty()) {
      ++removals;
      const auto index = static_cast<std::size_t>(sample.uniform_int(
          0, static_cast<std::int64_t>(hosted.size()) - 1));
      in_order.remove(index);
      hosted.erase(hosted.begin() + static_cast<std::ptrdiff_t>(index));
      check_cached("remove(" + std::to_string(index) + ")");
    }
    if (!hosted.empty()) {
      Subtask tight = hosted.back();
      ++tight.priority;
      ++tight.task_id;
      tight.wcet = 1;
      const RtaOutcome out = response_time(1, tight.period, hosted);
      if (out.schedulable) {
        tight.deadline = out.response;
        in_order.add(tight);
        hosted.push_back(tight);
        check_cached("add of a subtask tight at its deadline");
      }
    }

    // (e) The jitter kernel keeps the old robustness loop's exact values.
    if (n > 0) {
      const auto i = static_cast<std::size_t>(
          sample.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const auto hp = std::span<const Subtask>(subtasks).first(i);
      const Time jitter = sample.uniform_int(0, 1) == 0
                              ? sample.uniform_int(0, 1'000'000)
                              : sample.uniform_int(0, kTimeInfinity / 4);
      const Time bound = subtasks[i].period;
      const auto kj = kernel_jitter_response(subtasks, soa, i,
                                             subtasks[i].wcet, bound, jitter);
      const auto sj = oracle_jitter(subtasks[i].wcet, bound, hp, jitter);
      if (kj != sj) fail("kernel_jitter_response diverged from scalar loop");
    }

    // (f) MaxSplit: the per-constraint search on the drawn processor (grown
    // by (d')'s fitting adds, shrunk by (d'')'s removal and ending in its
    // schedulable tight subtask, so still schedulable when the draw was)
    // equals the scheduling-point oracle, for a prototype at any rank.
    // Requires a schedulable host, and the oracle's testing sets must stay
    // enumerable (overflow-scale draws can ask for ~2^60 points).
    if (kernel.schedulable) {
      const Subtask prototype = random_kernel_subtask(
          sample, static_cast<std::size_t>(sample.uniform_int(0, 20)),
          overflow_scale);
      if (testing_points(hosted, prototype) <= kMaxOraclePoints) {
        ++max_splits;
        const Time library = max_admissible_wcet(in_order, prototype);
        const Time expected = oracle::max_admissible_wcet(hosted, prototype);
        if (library != expected) {
          fail("max_admissible_wcet " + std::to_string(library) +
               " diverged from the scheduling-point oracle's " +
               std::to_string(expected));
        }
      }
    }
  }

  std::cout << "rmts_fuzz kernel: " << attempts << " hosted sets, " << probes
            << " admission probes, " << adds << " checked adds, "
            << removals << " checked removals, " << max_splits
            << " MaxSplit checks, "
            << violations << " violations (seed " << seed << ")\n";
  return violations;
}

// --------------------------------------------------- online churn fuzz --

/// Random admit/depart/rebalance interleavings on a PartitionSession.
/// Returns the number of violations found.
std::uint64_t churn_fuzz(double seconds, std::uint64_t seed) {
  Rng rng(seed ^ 0x636875726eULL);  // "churn"
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t attempts = 0;
  std::uint64_t operations = 0;
  std::uint64_t admitted = 0;
  std::uint64_t split_admits = 0;
  std::uint64_t departed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t full_checks = 0;
  std::uint64_t batch_checks = 0;
  std::uint64_t batch_accepts = 0;
  std::uint64_t violations = 0;

  // The harness's own ledger of what must be resident: insertion-ordered
  // (ticket, wcet, period) rows.  Tickets are monotone, so this stays
  // ticket-sorted for free -- directly comparable to session.residents().
  struct Row {
    online::Ticket ticket;
    Time wcet;
    Time period;
  };
  std::vector<Row> ledger;

  const auto fail = [&](const std::string& what, std::uint64_t op) {
    ++violations;
    std::cerr << "CHURN VIOLATION: " << what << "\n  repro: seed " << seed
              << ", attempt " << attempts - 1 << ", op " << op << '\n';
    std::vector<std::pair<Time, Time>> pairs;
    pairs.reserve(ledger.size());
    for (const Row& row : ledger) pairs.emplace_back(row.wcet, row.period);
    if (pairs.empty()) return;
    const std::string path = "rmts_fuzz_violation_" + std::to_string(seed) +
                             "_" + std::to_string(attempts - 1) + ".txt";
    std::ofstream dump(path);
    if (dump) {
      write_task_set(dump, TaskSet::from_pairs(pairs));
      std::cerr << "  resident set written to " << path << '\n';
    }
  };

  // Never-un-admit, after EVERY operation: the live resident rows must be
  // exactly the ledger -- same tickets, same parameters, nothing dropped,
  // nothing mutated -- and the utilization books must balance.
  const auto check_residents = [&](const online::PartitionSession& session,
                                   std::uint64_t op) {
    const auto residents = session.residents();
    if (residents.size() != ledger.size()) {
      fail("resident count diverged from the ledger (" +
               std::to_string(residents.size()) + " vs " +
               std::to_string(ledger.size()) + ")",
           op);
      return;
    }
    for (std::size_t i = 0; i < ledger.size(); ++i) {
      if (residents[i].ticket != ledger[i].ticket ||
          residents[i].wcet != ledger[i].wcet ||
          residents[i].period != ledger[i].period) {
        fail("resident row " + std::to_string(i) + " diverged (ticket " +
                 std::to_string(residents[i].ticket) + " vs " +
                 std::to_string(ledger[i].ticket) + ")",
             op);
        return;
      }
    }
    double expected_utilization = 0.0;
    for (const Row& row : ledger) {
      expected_utilization +=
          static_cast<double>(row.wcet) / static_cast<double>(row.period);
    }
    const online::SessionStats stats = session.stats();
    const double tolerance = 1e-9 * std::max(1.0, expected_utilization);
    if (std::abs(stats.utilization - expected_utilization) > tolerance) {
      fail("utilization accounting diverged (" +
               std::to_string(stats.utilization) + " vs ledger " +
               std::to_string(expected_utilization) + ")",
           op);
    }
    if (stats.resident_tasks != ledger.size()) {
      fail("stats.resident_tasks diverged from the ledger", op);
    }
  };

  // From-scratch cross-checks: full structural + exact-RTA invariants,
  // and a batch RmtsLight re-partition of the live resident set.
  const RmtsLight batch;
  const auto check_from_scratch = [&](const online::PartitionSession& session,
                                      std::size_t processors,
                                      std::uint64_t op) {
    ++full_checks;
    const std::string violation = session.check_invariants();
    if (!violation.empty()) fail("invariant: " + violation, op);
    if (ledger.empty()) return;
    ++batch_checks;
    std::vector<std::pair<Time, Time>> pairs;
    pairs.reserve(ledger.size());
    for (const Row& row : ledger) pairs.emplace_back(row.wcet, row.period);
    const TaskSet residents = TaskSet::from_pairs(pairs);
    const Assignment repartition = batch.partition(residents, processors);
    if (repartition.success) ++batch_accepts;
    // The sanity leg: what the online session is hosting is schedulable
    // from scratch (check_invariants above), so a batch reject is a
    // packing-quality gap, not a soundness bug -- but a batch accept that
    // claims LESS utilization than the session holds would mean the
    // ledger and the assignment disagree about what "the set" is.
    if (repartition.success &&
        std::abs(residents.total_utilization() - session.stats().utilization) >
            1e-9 * std::max(1.0, residents.total_utilization())) {
      fail("batch re-partition saw a different total utilization", op);
    }
  };

  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
             .count() < seconds) {
    Rng sample = rng.fork(attempts++);

    online::SessionConfig config;
    config.processors = static_cast<std::size_t>(sample.uniform_int(1, 6));
    config.allow_splitting = sample.uniform_int(0, 3) != 0;
    config.split_granularity = sample.uniform_int(0, 1) == 0
                                   ? Time{1}
                                   : sample.uniform_int(1, 16);
    config.rebalance_every =
        static_cast<std::size_t>(sample.uniform_int(0, 24));
    config.max_migrations_per_round =
        static_cast<std::size_t>(sample.uniform_int(1, 8));
    config.hysteresis = sample.uniform(0.02, 0.30);
    if (sample.uniform_int(0, 7) == 0) {
      config.max_resident = static_cast<std::size_t>(sample.uniform_int(1, 8));
    }
    online::PartitionSession session(config);
    ledger.clear();

    const auto ops =
        static_cast<std::uint64_t>(sample.uniform_int(32, 160));
    const double depart_rate = sample.uniform(0.10, 0.60);
    for (std::uint64_t op = 0; op < ops; ++op) {
      ++operations;
      const double roll = sample.uniform(0.0, 1.0);
      if (!ledger.empty() && roll < depart_rate) {
        const auto victim = static_cast<std::size_t>(sample.uniform_int(
            0, static_cast<std::int64_t>(ledger.size()) - 1));
        const online::Ticket ticket = ledger[victim].ticket;
        ledger.erase(ledger.begin() + static_cast<std::ptrdiff_t>(victim));
        if (!session.depart(ticket)) {
          fail("depart(" + std::to_string(ticket) + ") of a resident failed",
               op);
        }
        ++departed;
        if (session.depart(ticket)) {
          fail("double depart(" + std::to_string(ticket) + ") succeeded", op);
        }
      } else if (roll < depart_rate + 0.05) {
        migrations += session.rebalance();
      } else {
        // Modest utilizations keep sessions long-lived; occasional heavy
        // draws force rejections and split placements.
        const Time period = sample.uniform_int(2, 10'000);
        const double target = sample.uniform_int(0, 4) == 0
                                  ? sample.uniform(0.5, 1.0)
                                  : sample.uniform(0.02, 0.45);
        const Time wcet = std::max<Time>(
            1, static_cast<Time>(static_cast<double>(period) * target));
        const online::AdmitResult result = session.admit(wcet, period);
        if (result.admitted) {
          ++admitted;
          if (result.parts > 1) ++split_admits;
          if (!ledger.empty() && result.ticket <= ledger.back().ticket) {
            fail("ticket " + std::to_string(result.ticket) +
                     " not monotonically increasing",
                 op);
          }
          ledger.push_back({result.ticket, wcet, period});
        }
      }
      check_residents(session, op);
      if (op % 24 == 23) {
        check_from_scratch(session, config.processors, op);
      }
      if (violations != 0) break;
    }
    if (violations != 0) break;
    check_from_scratch(session, config.processors, ops);
  }

  std::cout << "rmts_fuzz churn: " << attempts << " sessions, " << operations
            << " ops (" << admitted << " admits, " << split_admits
            << " split, " << departed << " departs, " << migrations
            << " migrations), " << full_checks << " full invariant checks, "
            << batch_accepts << "/" << batch_checks
            << " batch re-partition accepts, " << violations
            << " violations (seed " << seed << ")\n";
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "kernel") {
    const double kernel_seconds = argc > 2 ? std::atof(argv[2]) : 10.0;
    const std::uint64_t kernel_seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
    return kernel_fuzz(kernel_seconds, kernel_seed) == 0 ? 0 : 1;
  }
  if (argc > 1 && std::string(argv[1]) == "churn") {
    const double churn_seconds = argc > 2 ? std::atof(argv[2]) : 10.0;
    const std::uint64_t churn_seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
    return churn_fuzz(churn_seconds, churn_seed) == 0 ? 0 : 1;
  }
  if (argc > 1 && std::string(argv[1]) == "proto") {
    const double proto_seconds = argc > 2 ? std::atof(argv[2]) : 10.0;
    const std::uint64_t proto_seed =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;
    return proto_fuzz(proto_seconds, proto_seed) == 0 ? 0 : 1;
  }

  const double seconds = argc > 1 ? std::atof(argv[1]) : 10.0;
  const std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  const std::vector<Entry> roster{
      {std::make_shared<RmtsLight>(), DispatchPolicy::kFixedPriority, true},
      {std::make_shared<RmtsLight>(SelectionPolicy::kFirstFit),
       DispatchPolicy::kFixedPriority, true},
      {std::make_shared<Rmts>(
           std::make_shared<BestOfBounds>(BestOfBounds::all_known())),
       DispatchPolicy::kFixedPriority, true},
      {std::make_shared<Spa2>(), DispatchPolicy::kFixedPriority, false},
      {std::make_shared<PartitionedRm>(FitPolicy::kFirstFit,
                                       TaskOrder::kDecreasingUtilization,
                                       Admission::kExactRta),
       DispatchPolicy::kFixedPriority, true},
      {std::make_shared<EdfSplit>(), DispatchPolicy::kEarliestDeadlineFirst,
       true},
  };

  Rng rng(seed);
  SimWorkspace workspace;  // reused across every simulated run
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t attempts = 0;  // fork key: advances even on infeasible draws
  std::uint64_t sets = 0;
  std::uint64_t accepted = 0;
  std::uint64_t margin_checks = 0;
  Reporter reporter{seed};

  while (std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
             .count() < seconds) {
    Rng sample = rng.fork(attempts);
    reporter.attempt = attempts++;
    WorkloadConfig config;
    config.processors = static_cast<std::size_t>(sample.uniform_int(1, 8));
    config.tasks =
        config.processors * static_cast<std::size_t>(sample.uniform_int(2, 6));
    config.period_model = PeriodModel::kGrid;
    config.period_grid = small_hyperperiod_grid();
    config.max_task_utilization = sample.uniform(0.3, 0.95);
    config.normalized_utilization = sample.uniform(0.3, 0.99);
    if (config.normalized_utilization >
        0.95 * config.max_task_utilization * static_cast<double>(config.tasks) /
            static_cast<double>(config.processors)) {
      continue;  // infeasible UUniFast target; redraw
    }
    const TaskSet tasks = generate(sample, config);
    ++sets;

    const double theta = liu_layland_theta(tasks.size());
    for (const Entry& entry : roster) {
      const Assignment assignment =
          entry.algorithm->partition(tasks, config.processors);
      if (!assignment.success) continue;
      const bool claimed =
          entry.unconditional ||
          tasks.normalized_utilization(config.processors) <= theta;
      if (!claimed) continue;
      ++accepted;
      SimConfig sim;
      sim.horizon = recommended_horizon(tasks, 2'000'000);
      sim.policy = entry.policy;
      // Invariant 0: the indexed core agrees with the naive reference core
      // bit-for-bit on every run the fuzzer performs.
      const auto simulate_checked = [&](const SimConfig& sim_config) {
        SimResult result = simulate(tasks, assignment, sim_config, workspace);
        if (!(result == simulate_reference(tasks, assignment, sim_config))) {
          reporter.violation(
              entry.algorithm->name() + ": indexed core diverged from reference",
              tasks, assignment, sim_config.faults);
        }
        return result;
      };
      const SimResult nominal = simulate_checked(sim);
      if (!nominal.schedulable) {
        reporter.violation(entry.algorithm->name() +
                               " accepted but missed a deadline",
                           tasks, assignment, sim.faults);
        continue;
      }

      // Invariant 1: identity faults (factor 1.0, no jitter) are miss-free
      // and bit-identical on every counter.
      SimConfig identity = sim;
      identity.faults.seed =
          static_cast<std::uint64_t>(sample.uniform_int(1, 1 << 30));
      identity.faults.overrun_probability = sample.uniform(0.0, 1.0);
      identity.faults.containment = ContainmentPolicy::kBudgetEnforcement;
      if (!counters_equal(nominal, simulate_checked(identity))) {
        reporter.violation(entry.algorithm->name() +
                               ": identity fault model changed the run",
                           tasks, assignment, identity.faults);
      }

      // Invariant 2: overruns under budget enforcement never miss -- the
      // contained demand is exactly the accepted nominal demand.
      SimConfig contained = sim;
      contained.stop_at_first_miss = false;
      contained.faults.seed =
          static_cast<std::uint64_t>(sample.uniform_int(1, 1 << 30));
      contained.faults.overrun_factor = sample.uniform(1.0, 3.0);
      contained.faults.overrun_ticks = sample.uniform_int(0, 3);
      contained.faults.overrun_probability = sample.uniform(0.2, 1.0);
      contained.faults.containment = ContainmentPolicy::kBudgetEnforcement;
      const SimResult guarded = simulate_checked(contained);
      if (!guarded.misses.empty()) {
        reporter.violation(entry.algorithm->name() +
                               ": budget enforcement let an overrun miss",
                           tasks, assignment, contained.faults);
      }

      // Invariant 3: under priority demotion, only tasks that actually
      // overran can miss (no collateral victims).
      SimConfig demoted = contained;
      demoted.faults.containment = ContainmentPolicy::kPriorityDemotion;
      const SimResult shielded = simulate_checked(demoted);
      for (const DeadlineMiss& miss : shielded.misses) {
        for (std::size_t rank = 0; rank < tasks.size(); ++rank) {
          if (tasks[rank].id == miss.task &&
              shielded.degraded_per_task[rank] == 0) {
            reporter.violation(
                entry.algorithm->name() +
                    ": demotion missed a task that never overran",
                tasks, assignment, demoted.faults);
          }
        }
      }

      // Invariant 4: processor failure is contained (orphans counted, no
      // crash; survivors keep the busy-time accounting consistent).
      if (reporter.attempt % 4 == 0) {
        SimConfig failing = sim;
        failing.stop_at_first_miss = false;
        failing.faults.failed_processor = static_cast<std::size_t>(
            sample.uniform_int(0, static_cast<Time>(config.processors) - 1));
        failing.faults.failure_time = sample.uniform_int(0, sim.horizon);
        const SimResult survived = simulate_checked(failing);
        if (survived.busy_time[failing.faults.failed_processor] >
            failing.faults.failure_time) {
          reporter.violation(entry.algorithm->name() +
                                 ": failed processor kept executing",
                             tasks, assignment, failing.faults);
        }
      }

      // Invariant 5 (periodic, costlier): the analytic robustness margins
      // never exceed the simulated ones on a fixed assignment.
      if (entry.policy == DispatchPolicy::kFixedPriority &&
          reporter.attempt % 16 == 0) {
        ++margin_checks;
        RobustnessConfig robustness;
        robustness.horizon_cap = 2'000'000;
        robustness.fault_seed =
            static_cast<std::uint64_t>(sample.uniform_int(1, 1 << 30));
        const RobustnessReport report =
            analyze_robustness(tasks, assignment, robustness);
        if (report.analytic_overrun_margin >
                report.simulated_overrun_margin + 1e-9 ||
            report.analytic_jitter_margin > report.simulated_jitter_margin) {
          reporter.violation(entry.algorithm->name() +
                                 ": analytic margin exceeds simulated margin",
                             tasks, assignment, sim.faults);
        }
      }
    }
  }

  std::cout << "rmts_fuzz: " << sets << " task sets, " << accepted
            << " accepted-and-claimed partitions simulated, " << margin_checks
            << " margin soundness checks, " << reporter.violations
            << " violations (seed " << seed << ")\n";
  return reporter.violations == 0 ? 0 : 1;
}
