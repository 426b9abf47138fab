#include "server/router.hpp"

#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/robustness.hpp"
#include "bounds/burchard.hpp"
#include "bounds/harmonic.hpp"
#include "bounds/ll_bound.hpp"
#include "bounds/scaled_periods.hpp"
#include "common/error.hpp"
#include "common/trace.hpp"
#include "partition/baselines.hpp"
#include "partition/edf_split.hpp"
#include "partition/rmts.hpp"
#include "partition/rmts_light.hpp"
#include "partition/spa.hpp"
#include "rta/rta.hpp"
#include "server/json.hpp"
#include "server/protocol.hpp"
#include "sim/simulator.hpp"

namespace rmts::server {

namespace {

/// Internal signal for "this request is malformed"; converted into an
/// ok:false reply by handle().  Distinct from rmts::Error so library
/// contract violations (which we also map to ok:false) keep their own
/// messages.
struct ProtocolError {
  std::string message;
};

[[noreturn]] void reject(std::string message) {
  throw ProtocolError{std::move(message)};
}

const JsonValue& require(const JsonValue& request, std::string_view key) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) reject("missing field '" + std::string(key) + "'");
  return *value;
}

std::int64_t require_int(const JsonValue& request, std::string_view key,
                         std::int64_t lo, std::int64_t hi) {
  const JsonValue& value = require(request, key);
  if (!value.is_int()) reject("field '" + std::string(key) + "' must be an integer");
  const std::int64_t parsed = value.as_int();
  if (parsed < lo || parsed > hi) {
    reject("field '" + std::string(key) + "' out of range [" +
           std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return parsed;
}

std::int64_t optional_int(const JsonValue& request, std::string_view key,
                          std::int64_t fallback, std::int64_t lo,
                          std::int64_t hi) {
  if (request.find(key) == nullptr) return fallback;
  return require_int(request, key, lo, hi);
}

double optional_double(const JsonValue& request, std::string_view key,
                       double fallback, double lo, double hi) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_number()) {
    reject("field '" + std::string(key) + "' must be a number");
  }
  const double parsed = value->as_double();
  if (!(parsed >= lo && parsed <= hi)) {
    reject("field '" + std::string(key) + "' out of range");
  }
  return parsed;
}

std::string optional_string(const JsonValue& request, std::string_view key,
                            std::string fallback) {
  const JsonValue* value = request.find(key);
  if (value == nullptr) return fallback;
  if (!value->is_string()) {
    reject("field '" + std::string(key) + "' must be a string");
  }
  return std::string(value->as_string());
}

TaskSet parse_tasks(const JsonValue& request, std::size_t max_tasks) {
  const JsonValue& tasks = require(request, "tasks");
  if (!tasks.is_array()) reject("field 'tasks' must be an array");
  if (tasks.items().empty()) reject("field 'tasks' must not be empty");
  if (tasks.items().size() > max_tasks) {
    reject("too many tasks (limit " + std::to_string(max_tasks) + ")");
  }
  std::vector<std::pair<Time, Time>> pairs;
  pairs.reserve(tasks.items().size());
  for (const JsonValue& entry : tasks.items()) {
    if (!entry.is_array() || entry.items().size() != 2 ||
        !entry.items()[0].is_int() || !entry.items()[1].is_int()) {
      reject("each task must be a [wcet, period] pair of integers");
    }
    pairs.emplace_back(entry.items()[0].as_int(), entry.items()[1].as_int());
  }
  // TaskSet validates 0 < C <= T and throws InvalidTaskError with the
  // offending values; handle() maps that to ok:false.
  return TaskSet::from_pairs(pairs);
}

BoundPtr make_bound(const std::string& name) {
  if (name == "ll") return std::make_shared<LiuLaylandBound>();
  if (name == "hc") return std::make_shared<HarmonicChainBound>();
  if (name == "tbound") return std::make_shared<TBound>();
  if (name == "rbound") return std::make_shared<RBound>();
  if (name == "burchard") return std::make_shared<BurchardBound>();
  reject("unknown bound '" + name + "'");
}

std::shared_ptr<const Partitioner> make_algorithm(const std::string& name,
                                                  const BoundPtr& bound) {
  if (name == "rmts") return std::make_shared<Rmts>(bound);
  if (name == "rmts-light") return std::make_shared<RmtsLight>();
  if (name == "spa1") return std::make_shared<Spa1>();
  if (name == "spa2") return std::make_shared<Spa2>();
  if (name == "prm-ff") {
    return std::make_shared<PartitionedRm>(FitPolicy::kFirstFit,
                                           TaskOrder::kDecreasingUtilization,
                                           Admission::kExactRta);
  }
  if (name == "edf-ts") return std::make_shared<EdfSplit>();
  reject("unknown algorithm '" + name + "'");
}

/// Everything the partition-based endpoints share: task set, M, algorithm
/// and its dispatch policy.
struct PartitionRequest {
  TaskSet tasks;
  std::size_t processors{0};
  std::string algorithm_key;
  std::shared_ptr<const Partitioner> algorithm;
  DispatchPolicy policy{DispatchPolicy::kFixedPriority};
};

PartitionRequest parse_partition_request(const JsonValue& request,
                                         const RouterConfig& config) {
  PartitionRequest out;
  out.tasks = parse_tasks(request, config.max_tasks);
  out.processors = static_cast<std::size_t>(require_int(
      request, "m", 1, static_cast<std::int64_t>(config.max_processors)));
  out.algorithm_key = optional_string(request, "alg", "rmts");
  const std::string bound = optional_string(request, "bound", "hc");
  out.algorithm = make_algorithm(out.algorithm_key, make_bound(bound));
  out.policy = out.algorithm_key == "edf-ts"
                   ? DispatchPolicy::kEarliestDeadlineFirst
                   : DispatchPolicy::kFixedPriority;
  return out;
}

/// Opens the uniform reply prologue {"ok":true,"op":...,"id":...} and
/// leaves the object open for endpoint-specific fields.
void begin_reply(JsonWriter& w, std::string_view op, const JsonValue* id) {
  w.begin_object();
  w.key("ok");
  w.value(true);
  w.key("op");
  w.value(op);
  if (id != nullptr) {
    w.key("id");
    w.value(*id);
  }
}

void write_task_set_summary(JsonWriter& w, const TaskSet& tasks,
                            std::size_t processors) {
  w.key("n");
  w.value(tasks.size());
  w.key("utilization");
  w.value(tasks.total_utilization());
  w.key("normalized_utilization");
  w.value(tasks.normalized_utilization(processors));
}

void write_assignment_summary(JsonWriter& w, const Assignment& assignment) {
  w.key("accepted");
  w.value(assignment.success);
  w.key("splits");
  w.value(assignment.split_task_count());
  w.key("subtasks");
  w.value(assignment.subtask_count());
  w.key("assigned_utilization");
  w.value(assignment.assigned_utilization());
  if (!assignment.unassigned.empty()) {
    w.key("unassigned");
    w.begin_array();
    for (const TaskId id : assignment.unassigned) {
      w.value(static_cast<std::uint64_t>(id));
    }
    w.end_array();
  }
}

void handle_admit(JsonWriter& w, const JsonValue& request,
                  const RouterConfig& config) {
  const PartitionRequest p = parse_partition_request(request, config);
  // RM-TS both partitions with its clamped bound and reports it: evaluate
  // the bound (a harmonic-chain matching at large N) once for both.
  const auto* rmts = dynamic_cast<const Rmts*>(p.algorithm.get());
  const double lambda = rmts != nullptr ? rmts->guaranteed_bound(p.tasks) : 0.0;
  const Assignment assignment =
      rmts != nullptr ? rmts->partition(p.tasks, p.processors, lambda)
                      : p.algorithm->partition(p.tasks, p.processors);
  w.key("algorithm");
  w.value(p.algorithm->name());
  write_task_set_summary(w, p.tasks, p.processors);
  if (rmts != nullptr) {
    w.key("guaranteed_bound");
    w.value(lambda);
  }
  write_assignment_summary(w, assignment);
}

/// Batched admission: one request carrying many task sets, amortizing
/// parse/dispatch/reply framing over the whole probe group (the client
///-side analogue of the SoA kernel's rta_batch_fits, which the admission
/// path under each item's partition() runs on).  Top-level m/alg/bound
/// are defaults each item may override; a bad item yields a per-item
/// ok:false entry without failing its siblings.
void handle_admit_batch(JsonWriter& w, const JsonValue& request,
                        const RouterConfig& config) {
  const JsonValue& items = require(request, "items");
  if (!items.is_array()) reject("field 'items' must be an array");
  if (items.items().empty()) reject("field 'items' must not be empty");
  if (items.items().size() > config.max_batch_items) {
    reject("too many items (limit " + std::to_string(config.max_batch_items) +
           ")");
  }
  const std::int64_t default_m =
      optional_int(request, "m", 0, 1,
                   static_cast<std::int64_t>(config.max_processors));
  const std::string default_alg = optional_string(request, "alg", "rmts");
  const std::string default_bound = optional_string(request, "bound", "hc");

  std::size_t accepted = 0;
  w.key("items");
  w.begin_array();
  for (const JsonValue& item : items.items()) {
    w.begin_object();
    try {
      if (!item.is_object()) reject("each item must be an object");
      const std::int64_t m =
          optional_int(item, "m", default_m, 1,
                       static_cast<std::int64_t>(config.max_processors));
      if (m == 0) reject("missing field 'm' (item or request level)");
      const TaskSet tasks = parse_tasks(item, config.max_tasks);
      const std::string alg = optional_string(item, "alg", default_alg);
      const std::string bound = optional_string(item, "bound", default_bound);
      const std::shared_ptr<const Partitioner> algorithm =
          make_algorithm(alg, make_bound(bound));
      const auto processors = static_cast<std::size_t>(m);
      const Assignment assignment = algorithm->partition(tasks, processors);
      w.key("ok");
      w.value(true);
      w.key("algorithm");
      w.value(algorithm->name());
      write_task_set_summary(w, tasks, processors);
      write_assignment_summary(w, assignment);
      if (assignment.success) ++accepted;
    } catch (const ProtocolError& error) {
      w.key("ok");
      w.value(false);
      w.key("error");
      w.value(error.message);
    } catch (const Error& error) {
      w.key("ok");
      w.value(false);
      w.key("error");
      w.value(std::string_view(error.what()));
    }
    w.end_object();
  }
  w.end_array();
  w.key("accepted_count");
  w.value(accepted);
}

void handle_analyze(JsonWriter& w, const JsonValue& request,
                    const RouterConfig& config) {
  const PartitionRequest p = parse_partition_request(request, config);
  write_task_set_summary(w, p.tasks, p.processors);
  w.key("harmonic");
  w.value(p.tasks.is_harmonic());
  w.key("max_task_utilization");
  w.value(p.tasks.max_utilization());

  // Per-bound utilization thresholds, all evaluated on the ORIGINAL set
  // (re-evaluating on partitions would be unsound -- bounds/bound.hpp).
  w.key("bounds");
  w.begin_object();
  for (const char* name : {"ll", "hc", "tbound", "rbound", "burchard"}) {
    const BoundPtr bound = make_bound(name);
    w.key(bound->name());
    w.value(bound->evaluate(p.tasks));
  }
  w.end_object();
  w.key("light_threshold");
  w.value(light_task_threshold(p.tasks.size()));
  w.key("rmts_cap");
  w.value(rmts_bound_cap(p.tasks.size()));
  w.key("light");
  w.value(p.tasks.all_lighter_than(light_task_threshold(p.tasks.size())));

  // RTA detail of the requested algorithm's partition: every subtask's
  // measured response time against its synthetic deadline.
  const Assignment assignment = p.algorithm->partition(p.tasks, p.processors);
  w.key("rta");
  w.begin_object();
  w.key("algorithm");
  w.value(p.algorithm->name());
  write_assignment_summary(w, assignment);
  if (assignment.success && p.policy == DispatchPolicy::kFixedPriority) {
    w.key("processors");
    w.begin_array();
    for (const ProcessorAssignment& proc : assignment.processors) {
      w.begin_object();
      w.key("utilization");
      w.value(proc.utilization());
      const ProcessorRta rta = analyze_processor(proc.subtasks);
      w.key("subtasks");
      w.begin_array();
      for (std::size_t s = 0; s < proc.subtasks.size(); ++s) {
        const Subtask& subtask = proc.subtasks[s];
        w.begin_object();
        w.key("task");
        w.value(static_cast<std::uint64_t>(subtask.task_id));
        w.key("part");
        w.value(static_cast<std::int64_t>(subtask.part));
        w.key("wcet");
        w.value(subtask.wcet);
        w.key("period");
        w.value(subtask.period);
        w.key("deadline");
        w.value(subtask.deadline);
        w.key("response");
        w.value(s < rta.response.size() ? rta.response[s] : Time{0});
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void handle_robustness(JsonWriter& w, const JsonValue& request,
                       const RouterConfig& config) {
  const PartitionRequest p = parse_partition_request(request, config);
  RobustnessConfig robustness;
  robustness.horizon_cap = config.sim_horizon_cap;
  robustness.policy = p.policy;
  robustness.fault_seed = static_cast<std::uint64_t>(optional_int(
      request, "fault_seed", 1, 1, std::numeric_limits<std::int64_t>::max()));
  robustness.max_overrun_factor = optional_double(
      request, "max_factor", 4.0, 1.0, config.max_overrun_factor);
  robustness.max_release_jitter = optional_int(
      request, "max_jitter", 0, 0, std::numeric_limits<std::int64_t>::max() / 2);

  const Assignment assignment = p.algorithm->partition(p.tasks, p.processors);
  w.key("algorithm");
  w.value(p.algorithm->name());
  write_task_set_summary(w, p.tasks, p.processors);
  w.key("accepted");
  w.value(assignment.success);
  if (!assignment.success) return;

  const RobustnessReport report =
      analyze_robustness(p.tasks, assignment, robustness);
  w.key("simulated_overrun_margin");
  w.value(report.simulated_overrun_margin);
  w.key("simulated_jitter_margin");
  w.value(report.simulated_jitter_margin);
  w.key("analytic_supported");
  w.value(report.analytic_supported);
  if (report.analytic_supported) {
    w.key("analytic_overrun_margin");
    w.value(report.analytic_overrun_margin);
    w.key("analytic_jitter_margin");
    w.value(report.analytic_jitter_margin);
  }
}

ContainmentPolicy parse_containment(const std::string& name) {
  if (name == "none") return ContainmentPolicy::kNone;
  if (name == "budget") return ContainmentPolicy::kBudgetEnforcement;
  if (name == "demote") return ContainmentPolicy::kPriorityDemotion;
  reject("unknown containment policy '" + name + "'");
}

FaultModel parse_faults(const JsonValue& request) {
  FaultModel faults;
  const JsonValue* spec = request.find("faults");
  if (spec == nullptr) return faults;
  if (!spec->is_object()) reject("field 'faults' must be an object");
  faults.overrun_factor = optional_double(*spec, "factor", 1.0, 0.0, 1e6);
  faults.overrun_ticks = optional_int(*spec, "ticks", 0, 0, 1'000'000'000);
  faults.overrun_probability = optional_double(*spec, "prob", 1.0, 0.0, 1.0);
  faults.release_jitter =
      optional_int(*spec, "jitter", 0, 0, 1'000'000'000'000);
  faults.seed = static_cast<std::uint64_t>(optional_int(
      *spec, "seed", 0, 0, std::numeric_limits<std::int64_t>::max()));
  faults.containment =
      parse_containment(optional_string(*spec, "containment", "none"));
  const std::int64_t fail_proc = optional_int(*spec, "fail_proc", -1, -1,
                                              1'000'000);
  if (fail_proc >= 0) {
    faults.failed_processor = static_cast<std::size_t>(fail_proc);
    faults.failure_time =
        optional_int(*spec, "fail_at", 0, 0, kTimeInfinity / 2);
  }
  return faults;
}

void handle_simulate(JsonWriter& w, const JsonValue& request,
                     const RouterConfig& config) {
  const PartitionRequest p = parse_partition_request(request, config);
  SimConfig sim;
  sim.policy = p.policy;
  sim.faults = parse_faults(request);
  sim.stop_at_first_miss = false;
  const Time cap = optional_int(request, "horizon_cap", config.sim_horizon_cap,
                                1, config.sim_horizon_cap);
  sim.horizon = recommended_horizon(p.tasks, cap);

  const Assignment assignment = p.algorithm->partition(p.tasks, p.processors);
  w.key("algorithm");
  w.value(p.algorithm->name());
  write_task_set_summary(w, p.tasks, p.processors);
  w.key("accepted");
  w.value(assignment.success);
  if (!assignment.success) return;

  // One workspace per worker thread: repeated simulate requests on a
  // connection reuse it allocation-free (the PR 3 hot path).
  thread_local SimWorkspace workspace;
  const SimResult& run = simulate(p.tasks, assignment, sim, workspace);
  w.key("schedulable");
  w.value(run.schedulable);
  w.key("simulated_until");
  w.value(run.simulated_until);
  w.key("events");
  w.value(run.events);
  w.key("jobs_released");
  w.value(run.jobs_released);
  w.key("jobs_completed");
  w.value(run.jobs_completed);
  w.key("preemptions");
  w.value(run.preemptions);
  w.key("migrations");
  w.value(run.migrations);
  w.key("misses");
  w.value(run.misses.size());
  if (!run.misses.empty()) {
    constexpr std::size_t kMaxEchoedMisses = 8;
    w.key("first_misses");
    w.begin_array();
    for (std::size_t i = 0; i < run.misses.size() && i < kMaxEchoedMisses; ++i) {
      w.begin_object();
      w.key("task");
      w.value(static_cast<std::uint64_t>(run.misses[i].task));
      w.key("release");
      w.value(run.misses[i].release);
      w.key("deadline");
      w.value(run.misses[i].deadline);
      w.end_object();
    }
    w.end_array();
  }
  if (sim.faults.active()) {
    w.key("degraded");
    w.value(run.jobs_degraded);
    w.key("aborted");
    w.value(run.jobs_aborted);
    w.key("demoted");
    w.value(run.jobs_demoted);
    w.key("orphaned");
    w.value(run.subtasks_orphaned);
  }
}

// ------------------------------------------------- online sessions ------
//
// The session_* ops expose src/online/ over the wire: a session_open
// creates a long-lived PartitionSession in the router's registry; admit /
// depart / rebalance mutate it under its per-session mutex.  Rejections
// ("no placement passes exact RTA", unknown ticket) are normal ok:true
// replies, mirroring the batch admit's accepted:false philosophy; only
// unparseable requests and unknown session ids are errors.

online::SessionConfig parse_session_config(const JsonValue& request,
                                           const RouterConfig& config) {
  online::SessionConfig session;
  session.processors = static_cast<std::size_t>(
      require_int(request, "m", 1,
                  static_cast<std::int64_t>(config.max_session_processors)));
  const JsonValue* split = request.find("split");
  if (split != nullptr) {
    if (!split->is_bool()) reject("field 'split' must be a boolean");
    session.allow_splitting = split->as_bool();
  }
  session.split_granularity =
      optional_int(request, "granularity", 1, 1, 1'000'000'000);
  session.rebalance_every = static_cast<std::size_t>(
      optional_int(request, "rebalance_every", 16, 0, 1'000'000));
  session.max_migrations_per_round = static_cast<std::size_t>(
      optional_int(request, "max_migrations", 4, 0, 1'000'000));
  session.hysteresis = optional_double(request, "hysteresis", 0.10, 0.0, 1.0);
  session.max_resident = static_cast<std::size_t>(optional_int(
      request, "max_resident",
      static_cast<std::int64_t>(config.max_session_residents), 1,
      static_cast<std::int64_t>(config.max_session_residents)));
  return session;
}

void handle_session_open(JsonWriter& w, const JsonValue& request,
                         const RouterConfig& config,
                         online::SessionRegistry& sessions) {
  const online::SessionConfig session = parse_session_config(request, config);
  const online::SessionId id = sessions.open(session);
  if (id == 0) {
    reject("too many open sessions (limit " +
           std::to_string(config.max_sessions) + ")");
  }
  w.key("session");
  w.value(id);
  w.key("processors");
  w.value(session.processors);
  w.key("max_resident");
  w.value(session.max_resident);
}

/// Locks the session named by the request's required `session` field;
/// rejects when the id is unknown (or already closed).
online::SessionRegistry::Handle lock_session(
    const JsonValue& request, const online::SessionRegistry& sessions) {
  const std::int64_t id = require_int(
      request, "session", 1, std::numeric_limits<std::int64_t>::max());
  online::SessionRegistry::Handle handle =
      sessions.lock(static_cast<online::SessionId>(id));
  if (!handle) reject("unknown session " + std::to_string(id));
  return handle;
}

void handle_session_admit(JsonWriter& w, const JsonValue& request,
                          const online::SessionRegistry& sessions) {
  const std::int64_t wcet =
      require_int(request, "wcet", 1, online::PartitionSession::kMaxPeriod);
  const std::int64_t period =
      require_int(request, "period", 1, online::PartitionSession::kMaxPeriod);
  const online::SessionRegistry::Handle handle =
      lock_session(request, sessions);
  const online::AdmitResult result = handle.session().admit(wcet, period);
  w.key("accepted");
  w.value(result.admitted);
  if (result.admitted) {
    w.key("ticket");
    w.value(result.ticket);
    w.key("parts");
    w.value(result.parts);
  } else {
    w.key("reason");
    w.value(result.reason);
  }
}

void handle_session_depart(JsonWriter& w, const JsonValue& request,
                           const online::SessionRegistry& sessions) {
  const std::int64_t ticket = require_int(
      request, "ticket", 1, std::numeric_limits<std::int64_t>::max());
  const online::SessionRegistry::Handle handle =
      lock_session(request, sessions);
  const bool departed =
      handle.session().depart(static_cast<online::Ticket>(ticket));
  w.key("departed");
  w.value(departed);
}

void handle_session_rebalance(JsonWriter& w, const JsonValue& request,
                              const online::SessionRegistry& sessions) {
  const online::SessionRegistry::Handle handle =
      lock_session(request, sessions);
  w.key("migrations");
  w.value(handle.session().rebalance());
}

void write_session_stats(JsonWriter& w, const online::SessionStats& stats) {
  w.key("processors");
  w.value(stats.processors);
  w.key("resident_tasks");
  w.value(stats.resident_tasks);
  w.key("resident_subtasks");
  w.value(stats.resident_subtasks);
  w.key("split_residents");
  w.value(stats.split_residents);
  w.key("admits");
  w.value(stats.admits_total);
  w.key("rejects");
  w.value(stats.rejects_total);
  w.key("departs");
  w.value(stats.departs_total);
  w.key("migrations");
  w.value(stats.migrations_total);
  w.key("rebalance_rounds");
  w.value(stats.rebalance_rounds_total);
  w.key("utilization");
  w.value(stats.utilization);
  w.key("normalized_utilization");
  w.value(stats.normalized_utilization);
  w.key("min_processor_utilization");
  w.value(stats.min_processor_utilization);
  w.key("max_processor_utilization");
  w.value(stats.max_processor_utilization);
}

void handle_session_stats(JsonWriter& w, const JsonValue& request,
                          const online::SessionRegistry& sessions) {
  const online::SessionRegistry::Handle handle =
      lock_session(request, sessions);
  write_session_stats(w, handle.session().stats());
}

void handle_session_close(JsonWriter& w, const JsonValue& request,
                          online::SessionRegistry& sessions) {
  const std::int64_t id = require_int(
      request, "session", 1, std::numeric_limits<std::int64_t>::max());
  w.key("closed");
  w.value(sessions.close(static_cast<online::SessionId>(id)));
}

void write_endpoint_stats(JsonWriter& w, const Metrics& metrics,
                          Endpoint endpoint) {
  const Metrics::EndpointSnapshot snap = metrics.snapshot(endpoint);
  w.key(endpoint_name(endpoint));
  w.begin_object();
  w.key("requests");
  w.value(snap.requests);
  w.key("errors");
  w.value(snap.errors);
  w.key("p50_us");
  w.value(snap.p50_micros);
  w.key("p90_us");
  w.value(snap.p90_micros);
  w.key("p99_us");
  w.value(snap.p99_micros);
  w.key("mean_us");
  w.value(snap.mean_micros);
  w.key("max_us");
  w.value(snap.max_micros);
  w.end_object();
}

/// Live overload-control state: the adaptive flag, tick count and every
/// budgeted class's budget / in-flight / shed / expired / retry hint.
void write_overload_stats(JsonWriter& w, const RuntimeStats& runtime) {
  w.key("overload");
  w.begin_object();
  w.key("adaptive");
  w.value(runtime.adaptive);
  w.key("controller_ticks");
  w.value(runtime.controller_ticks);
  w.key("requests_expired");
  w.value(runtime.requests_expired);
  w.key("classes");
  w.begin_object();
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    const ClassRuntimeStats& cls = runtime.classes[c];
    w.key(budget_class_name(static_cast<BudgetClass>(c)));
    w.begin_object();
    w.key("budget");
    w.value(static_cast<std::uint64_t>(cls.budget));
    w.key("in_flight");
    w.value(cls.in_flight);
    w.key("shed");
    w.value(cls.shed);
    w.key("expired");
    w.value(cls.expired);
    w.key("retry_after_ms");
    w.value(cls.retry_after_ms);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

/// Cross-layer stage timers and counters, appended to the stats reply
/// when the tracing layer is compiled in (common/trace.hpp).
void write_trace_stats(JsonWriter& w) {
  w.key("tracing");
  w.value(trace::compiled_in() && trace::enabled());
  if (!trace::compiled_in()) return;
  const trace::Snapshot snap = trace::snapshot();
  w.key("stages");
  w.begin_object();
  for (std::size_t s = 0; s < trace::kStageCount; ++s) {
    const trace::StageSnapshot& stage = snap.stages[s];
    if (stage.count == 0) continue;
    w.key(trace::stage_name(static_cast<trace::Stage>(s)));
    w.begin_object();
    w.key("count");
    w.value(stage.count);
    w.key("total_us");
    w.value(static_cast<double>(stage.total_ns) / 1000.0);
    w.key("mean_us");
    w.value(stage.mean_ns() / 1000.0);
    w.key("p50_us");
    w.value(stage.latency_ns.quantile(0.50) / 1000.0);
    w.key("p99_us");
    w.value(stage.latency_ns.quantile(0.99) / 1000.0);
    w.key("max_us");
    w.value(static_cast<double>(stage.max_ns) / 1000.0);
    w.end_object();
  }
  w.end_object();
  w.key("counters");
  w.begin_object();
  for (std::size_t c = 0; c < trace::kCounterCount; ++c) {
    w.key(trace::counter_name(static_cast<trace::Counter>(c)));
    w.value(snap.counters[c]);
  }
  w.end_object();
}

/// The trace stage timing each op's compute; kMalformed never reaches the
/// handler switch.
trace::Stage stage_of(Endpoint endpoint) noexcept {
  switch (endpoint) {
    case Endpoint::kAdmit: return trace::Stage::kRouterAdmit;
    case Endpoint::kAdmitBatch: return trace::Stage::kRouterAdmit;
    case Endpoint::kAnalyze: return trace::Stage::kRouterAnalyze;
    case Endpoint::kRobustness: return trace::Stage::kRouterRobustness;
    case Endpoint::kSimulate: return trace::Stage::kRouterSimulate;
    case Endpoint::kSession: return trace::Stage::kRouterSession;
    case Endpoint::kStats: return trace::Stage::kRouterStats;
    case Endpoint::kMetrics: return trace::Stage::kRouterMetrics;
    case Endpoint::kMalformed: break;
  }
  return trace::Stage::kRouterStats;
}

// ------------------------------------------------- text exposition ------

/// Prometheus floats: integral values print bare, others via json_number
/// (shortest round-trip decimal; never inf/nan here).
std::string prom_number(double value) {
  if (value == static_cast<double>(static_cast<std::int64_t>(value))) {
    return std::to_string(static_cast<std::int64_t>(value));
  }
  return json_number(value);
}

void expose_endpoints(std::ostringstream& out, const Metrics& metrics) {
  out << "# TYPE rmts_requests_total counter\n";
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    const auto endpoint = static_cast<Endpoint>(e);
    const Metrics::EndpointSnapshot snap = metrics.snapshot(endpoint);
    out << "rmts_requests_total{endpoint=\"" << endpoint_name(endpoint)
        << "\"} " << snap.requests << '\n';
  }
  out << "# TYPE rmts_request_errors_total counter\n";
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    const auto endpoint = static_cast<Endpoint>(e);
    const Metrics::EndpointSnapshot snap = metrics.snapshot(endpoint);
    out << "rmts_request_errors_total{endpoint=\"" << endpoint_name(endpoint)
        << "\"} " << snap.errors << '\n';
  }
  // Sparse HDR histogram: only non-empty buckets are emitted (cumulative,
  // as Prometheus `le` semantics require), plus the mandatory +Inf.
  out << "# TYPE rmts_request_latency_us histogram\n";
  for (std::size_t e = 0; e < kEndpointCount; ++e) {
    const auto endpoint = static_cast<Endpoint>(e);
    const Metrics::EndpointSnapshot snap = metrics.snapshot(endpoint);
    if (snap.requests == 0) continue;
    const std::string label{endpoint_name(endpoint)};
    for (const Histogram::Bucket& bucket : snap.latency_us.nonzero_buckets()) {
      out << "rmts_request_latency_us_bucket{endpoint=\"" << label
          << "\",le=\"" << bucket.upper << "\"} " << bucket.cumulative << '\n';
    }
    out << "rmts_request_latency_us_bucket{endpoint=\"" << label
        << "\",le=\"+Inf\"} " << snap.latency_us.count() << '\n';
    out << "rmts_request_latency_us_sum{endpoint=\"" << label << "\"} "
        << snap.latency_us.sum() << '\n';
    out << "rmts_request_latency_us_count{endpoint=\"" << label << "\"} "
        << snap.latency_us.count() << '\n';
  }
}

void expose_runtime(std::ostringstream& out, const RuntimeStats& runtime) {
  out << "# TYPE rmts_uptime_seconds gauge\n"
      << "rmts_uptime_seconds " << prom_number(runtime.uptime_seconds) << '\n'
      << "# TYPE rmts_workers gauge\n"
      << "rmts_workers " << runtime.workers << '\n'
      << "# TYPE rmts_connections_accepted_total counter\n"
      << "rmts_connections_accepted_total " << runtime.connections_accepted
      << '\n'
      << "# TYPE rmts_connections_active gauge\n"
      << "rmts_connections_active " << runtime.connections_active << '\n'
      << "# TYPE rmts_requests_shed_total counter\n"
      << "rmts_requests_shed_total " << runtime.requests_shed << '\n'
      << "# TYPE rmts_requests_expired_total counter\n"
      << "rmts_requests_expired_total " << runtime.requests_expired << '\n'
      << "# TYPE rmts_batches_dispatched_total counter\n"
      << "rmts_batches_dispatched_total " << runtime.batches_dispatched << '\n'
      << "# TYPE rmts_requests_in_flight gauge\n"
      << "rmts_requests_in_flight " << runtime.in_flight << '\n';

  // Overload-control surface: live budgets and per-class counters, so a
  // dashboard can watch the controller breathe in production.
  out << "# TYPE rmts_overload_adaptive gauge\n"
      << "rmts_overload_adaptive " << (runtime.adaptive ? 1 : 0) << '\n'
      << "# TYPE rmts_overload_controller_ticks_total counter\n"
      << "rmts_overload_controller_ticks_total " << runtime.controller_ticks
      << '\n';
  out << "# TYPE rmts_class_budget gauge\n";
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    out << "rmts_class_budget{class=\""
        << budget_class_name(static_cast<BudgetClass>(c)) << "\"} "
        << runtime.classes[c].budget << '\n';
  }
  out << "# TYPE rmts_class_in_flight gauge\n";
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    out << "rmts_class_in_flight{class=\""
        << budget_class_name(static_cast<BudgetClass>(c)) << "\"} "
        << runtime.classes[c].in_flight << '\n';
  }
  out << "# TYPE rmts_class_shed_total counter\n";
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    out << "rmts_class_shed_total{class=\""
        << budget_class_name(static_cast<BudgetClass>(c)) << "\"} "
        << runtime.classes[c].shed << '\n';
  }
  out << "# TYPE rmts_class_expired_total counter\n";
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    out << "rmts_class_expired_total{class=\""
        << budget_class_name(static_cast<BudgetClass>(c)) << "\"} "
        << runtime.classes[c].expired << '\n';
  }
  out << "# TYPE rmts_class_retry_after_ms gauge\n";
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    out << "rmts_class_retry_after_ms{class=\""
        << budget_class_name(static_cast<BudgetClass>(c)) << "\"} "
        << runtime.classes[c].retry_after_ms << '\n';
  }
}

/// Online-session gauges: per-session resident tasks / utilization /
/// migrations (labelled by session id) plus aggregate op totals.  The
/// aggregates come from the registry's RegistryTotals, which fold in
/// closed sessions, so the `_total` series are monotone; the per-session
/// labelled series simply disappear when their session closes.
void expose_sessions(
    std::ostringstream& out,
    const std::vector<std::pair<online::SessionId, online::SessionStats>>&
        rows,
    const online::RegistryTotals& totals) {
  out << "# TYPE rmts_sessions_open gauge\n"
      << "rmts_sessions_open " << rows.size() << '\n';
  out << "# TYPE rmts_session_resident_tasks gauge\n";
  for (const auto& [sid, stats] : rows) {
    out << "rmts_session_resident_tasks{session=\"" << sid << "\"} "
        << stats.resident_tasks << '\n';
  }
  out << "# TYPE rmts_session_utilization gauge\n";
  for (const auto& [sid, stats] : rows) {
    out << "rmts_session_utilization{session=\"" << sid << "\"} "
        << prom_number(stats.utilization) << '\n';
  }
  out << "# TYPE rmts_session_migrations_total counter\n";
  for (const auto& [sid, stats] : rows) {
    out << "rmts_session_migrations_total{session=\"" << sid << "\"} "
        << stats.migrations_total << '\n';
  }
  out << "# TYPE rmts_session_admits_total counter\n"
      << "rmts_session_admits_total " << totals.admits_total << '\n'
      << "# TYPE rmts_session_rejects_total counter\n"
      << "rmts_session_rejects_total " << totals.rejects_total << '\n'
      << "# TYPE rmts_session_departs_total counter\n"
      << "rmts_session_departs_total " << totals.departs_total << '\n';
}

void expose_trace(std::ostringstream& out) {
  if (!trace::compiled_in()) return;
  const trace::Snapshot snap = trace::snapshot();
  out << "# TYPE rmts_trace_events_total counter\n";
  for (std::size_t c = 0; c < trace::kCounterCount; ++c) {
    out << "rmts_trace_events_total{counter=\""
        << trace::counter_name(static_cast<trace::Counter>(c)) << "\"} "
        << snap.counters[c] << '\n';
  }
  const std::uint64_t posted =
      snap.counter(trace::Counter::kPoolTasksPosted);
  const std::uint64_t started =
      snap.counter(trace::Counter::kPoolTasksStarted);
  out << "# TYPE rmts_pool_queue_depth gauge\n"
      << "rmts_pool_queue_depth " << (posted > started ? posted - started : 0)
      << '\n';
  // Per-stage latency as a summary (count/sum plus key quantiles); the
  // full per-stage HDR buckets would multiply the payload ~16x for little
  // scrape value.
  out << "# TYPE rmts_stage_latency_ns summary\n";
  for (std::size_t s = 0; s < trace::kStageCount; ++s) {
    const trace::StageSnapshot& stage = snap.stages[s];
    if (stage.count == 0) continue;
    const std::string_view name =
        trace::stage_name(static_cast<trace::Stage>(s));
    for (const double q : {0.5, 0.9, 0.99}) {
      out << "rmts_stage_latency_ns{stage=\"" << name << "\",quantile=\""
          << prom_number(q) << "\"} "
          << prom_number(stage.latency_ns.quantile(q)) << '\n';
    }
    out << "rmts_stage_latency_ns_sum{stage=\"" << name << "\"} "
        << stage.total_ns << '\n';
    out << "rmts_stage_latency_ns_count{stage=\"" << name << "\"} "
        << stage.count << '\n';
  }
}

}  // namespace

Router::Router(RouterConfig config, const Metrics& metrics,
               std::function<RuntimeStats()> runtime)
    : config_(config),
      metrics_(metrics),
      runtime_(std::move(runtime)),
      sessions_(online::RegistryConfig{config.max_sessions}) {}

HandleOutcome Router::handle(std::string_view line) const {
  JsonValue request;
  std::string parse_error;
  if (!json_parse(line, request, parse_error)) {
    return {error_reply("parse: " + parse_error), Endpoint::kMalformed, true};
  }
  if (!request.is_object()) {
    return {error_reply("request must be a JSON object"), Endpoint::kMalformed,
            true};
  }
  const JsonValue* op_field = request.find("op");
  if (op_field == nullptr || !op_field->is_string()) {
    return {error_reply("missing string field 'op'"), Endpoint::kMalformed,
            true};
  }
  const std::string_view op = op_field->as_string();
  const JsonValue* id = request.find("id");

  Endpoint endpoint;
  if (op == "admit") {
    endpoint = Endpoint::kAdmit;
  } else if (op == "admit_batch") {
    endpoint = Endpoint::kAdmitBatch;
  } else if (op == "analyze") {
    endpoint = Endpoint::kAnalyze;
  } else if (op == "robustness") {
    endpoint = Endpoint::kRobustness;
  } else if (op == "simulate") {
    endpoint = Endpoint::kSimulate;
  } else if (op == "session_open" || op == "session_admit" ||
             op == "session_depart" || op == "session_rebalance" ||
             op == "session_stats" || op == "session_close") {
    endpoint = Endpoint::kSession;
  } else if (op == "stats") {
    endpoint = Endpoint::kStats;
  } else if (op == "metrics") {
    endpoint = Endpoint::kMetrics;
  } else {
    return {error_reply("unknown op '" + std::string(op) + "'"),
            Endpoint::kMalformed, true};
  }

  const auto fail = [&](const std::string& message) {
    JsonWriter w;
    w.begin_object();
    w.key("ok");
    w.value(false);
    w.key("op");
    w.value(op);
    if (id != nullptr) {
      w.key("id");
      w.value(*id);
    }
    w.key("error");
    w.value(message);
    w.end_object();
    return HandleOutcome{w.str(), endpoint, true};
  };

  try {
    const trace::Span span(stage_of(endpoint));
    JsonWriter w;
    begin_reply(w, op, id);
    switch (endpoint) {
      case Endpoint::kAdmit: handle_admit(w, request, config_); break;
      case Endpoint::kAdmitBatch:
        handle_admit_batch(w, request, config_);
        break;
      case Endpoint::kAnalyze: handle_analyze(w, request, config_); break;
      case Endpoint::kRobustness: handle_robustness(w, request, config_); break;
      case Endpoint::kSimulate: handle_simulate(w, request, config_); break;
      case Endpoint::kSession: {
        if (op == "session_open") {
          handle_session_open(w, request, config_, sessions_);
        } else if (op == "session_admit") {
          handle_session_admit(w, request, sessions_);
        } else if (op == "session_depart") {
          handle_session_depart(w, request, sessions_);
        } else if (op == "session_rebalance") {
          handle_session_rebalance(w, request, sessions_);
        } else if (op == "session_stats") {
          handle_session_stats(w, request, sessions_);
        } else {
          handle_session_close(w, request, sessions_);
        }
        break;
      }
      case Endpoint::kStats: {
        if (runtime_) {
          const RuntimeStats runtime = runtime_();
          w.key("uptime_seconds");
          w.value(runtime.uptime_seconds);
          w.key("workers");
          w.value(runtime.workers);
          w.key("connections_accepted");
          w.value(runtime.connections_accepted);
          w.key("connections_active");
          w.value(runtime.connections_active);
          w.key("requests_shed");
          w.value(runtime.requests_shed);
          w.key("batches_dispatched");
          w.value(runtime.batches_dispatched);
          w.key("in_flight");
          w.value(runtime.in_flight);
          write_overload_stats(w, runtime);
        }
        // Online sessions: one aggregate block (lifetime counters fold
        // in closed sessions; resident_tasks is a live gauge) plus a
        // per-session table of each live session's full stats.
        {
          const auto rows = sessions_.all_stats();
          const online::RegistryTotals totals = sessions_.totals();
          w.key("sessions");
          w.begin_object();
          w.key("open");
          w.value(rows.size());
          w.key("resident_tasks");
          w.value(totals.resident_tasks);
          w.key("admits");
          w.value(totals.admits_total);
          w.key("rejects");
          w.value(totals.rejects_total);
          w.key("departs");
          w.value(totals.departs_total);
          w.key("migrations");
          w.value(totals.migrations_total);
          w.key("per_session");
          w.begin_array();
          for (const auto& [sid, stats] : rows) {
            w.begin_object();
            w.key("session");
            w.value(sid);
            write_session_stats(w, stats);
            w.end_object();
          }
          w.end_array();
          w.end_object();
        }
        w.key("requests_total");
        w.value(metrics_.total_requests());
        w.key("endpoints");
        w.begin_object();
        for (std::size_t e = 0; e < kEndpointCount; ++e) {
          write_endpoint_stats(w, metrics_, static_cast<Endpoint>(e));
        }
        w.end_object();
        write_trace_stats(w);
        break;
      }
      case Endpoint::kMetrics: {
        w.key("content_type");
        w.value("text/plain; version=0.0.4");
        w.key("text");
        w.value(metrics_exposition());
        break;
      }
      case Endpoint::kMalformed: break;  // unreachable
    }
    w.end_object();
    return {w.str(), endpoint, false};
  } catch (const ProtocolError& error) {
    return fail(error.message);
  } catch (const Error& error) {
    // Library contract violations (invalid task parameters, malformed
    // fault models) -- expected for hostile inputs, reported verbatim.
    return fail(error.what());
  }
}

std::string Router::metrics_exposition() const {
  std::ostringstream out;
  expose_endpoints(out, metrics_);
  if (runtime_) expose_runtime(out, runtime_());
  expose_sessions(out, sessions_.all_stats(), sessions_.totals());
  expose_trace(out);
  return out.str();
}

HandleOutcome Router::oversized_line() const {
  return {error_reply("line too long"), Endpoint::kMalformed, true};
}

}  // namespace rmts::server
