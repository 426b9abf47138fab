#include "server/router.hpp"

#include <limits>
#include <memory>
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

/// Opens the uniform reply prologue {"ok":...,"op":...,"id":...} and
/// leaves the object open for endpoint-specific fields.
void begin_reply(JsonWriter& w, bool ok, std::string_view op,
                 const JsonValue* id) {
  w.begin_object();
  w.member("ok", ok);
  w.member("op", op);
  if (id != nullptr) w.member("id", *id);
}

void write_task_set_summary(JsonWriter& w, const TaskSet& tasks,
                            std::size_t processors) {
  w.member("n", tasks.size());
  w.member("utilization", tasks.total_utilization());
  w.member("normalized_utilization", tasks.normalized_utilization(processors));
}

void write_assignment_summary(JsonWriter& w, const Assignment& assignment) {
  w.member("accepted", assignment.success);
  w.member("splits", assignment.split_task_count());
  w.member("subtasks", assignment.subtask_count());
  w.member("assigned_utilization", assignment.assigned_utilization());
  if (!assignment.unassigned.empty()) {
    w.begin_array("unassigned");
    for (const TaskId id : assignment.unassigned) {
      w.value(static_cast<std::uint64_t>(id));
    }
    w.end_array();
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

/// Locks the session named by the request's required `session` field;
/// rejects when the id is unknown (or already closed).
online::SessionRegistry::Handle lock_session(const JsonValue& request,
                                             const Router& router) {
  const std::int64_t id = require_int(
      request, "session", 1, std::numeric_limits<std::int64_t>::max());
  online::SessionRegistry::Handle handle =
      router.sessions().lock(static_cast<online::SessionId>(id));
  if (!handle) reject("unknown session " + std::to_string(id));
  return handle;
}

}  // namespace

namespace handlers {

void admit(JsonWriter& w, const JsonValue& request, const Router& router) {
  const PartitionRequest p = parse_partition_request(request, router.config());
  // RM-TS both partitions with its clamped bound and reports it: evaluate
  // the bound (a harmonic-chain matching at large N) once for both.
  const auto* rmts = dynamic_cast<const Rmts*>(p.algorithm.get());
  const double lambda = rmts != nullptr ? rmts->guaranteed_bound(p.tasks) : 0.0;
  const Assignment assignment =
      rmts != nullptr ? rmts->partition(p.tasks, p.processors, lambda)
                      : p.algorithm->partition(p.tasks, p.processors);
  w.member("algorithm", p.algorithm->name());
  write_task_set_summary(w, p.tasks, p.processors);
  if (rmts != nullptr) w.member("guaranteed_bound", lambda);
  write_assignment_summary(w, assignment);
}

/// Batched admission: one request carrying many task sets, amortizing
/// parse/dispatch/reply framing over the whole probe group (the client
///-side analogue of the SoA kernel's rta_batch_fits, which the admission
/// path under each item's partition() runs on).  Top-level m/alg/bound
/// are defaults each item may override; a bad item yields a per-item
/// ok:false entry without failing its siblings.
void admit_batch(JsonWriter& w, const JsonValue& request,
                 const Router& router) {
  const RouterConfig& config = router.config();
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
  w.begin_array("items");
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
      w.member("ok", true);
      w.member("algorithm", algorithm->name());
      write_task_set_summary(w, tasks, processors);
      write_assignment_summary(w, assignment);
      if (assignment.success) ++accepted;
    } catch (const ProtocolError& error) {
      w.member("ok", false);
      w.member("error", error.message);
    } catch (const Error& error) {
      w.member("ok", false);
      w.member("error", std::string_view(error.what()));
    }
    w.end_object();
  }
  w.end_array();
  w.member("accepted_count", accepted);
}

void analyze(JsonWriter& w, const JsonValue& request, const Router& router) {
  const PartitionRequest p = parse_partition_request(request, router.config());
  write_task_set_summary(w, p.tasks, p.processors);
  w.member("harmonic", p.tasks.is_harmonic());
  w.member("max_task_utilization", p.tasks.max_utilization());

  // Per-bound utilization thresholds, all evaluated on the ORIGINAL set
  // (re-evaluating on partitions would be unsound -- bounds/bound.hpp).
  w.begin_object("bounds");
  for (const char* name : {"ll", "hc", "tbound", "rbound", "burchard"}) {
    const BoundPtr bound = make_bound(name);
    w.member(bound->name(), bound->evaluate(p.tasks));
  }
  w.end_object();
  w.member("light_threshold", light_task_threshold(p.tasks.size()));
  w.member("rmts_cap", rmts_bound_cap(p.tasks.size()));
  w.member("light",
           p.tasks.all_lighter_than(light_task_threshold(p.tasks.size())));

  // RTA detail of the requested algorithm's partition: every subtask's
  // measured response time against its synthetic deadline.
  const Assignment assignment = p.algorithm->partition(p.tasks, p.processors);
  w.begin_object("rta");
  w.member("algorithm", p.algorithm->name());
  write_assignment_summary(w, assignment);
  if (assignment.success && p.policy == DispatchPolicy::kFixedPriority) {
    w.begin_array("processors");
    for (const ProcessorAssignment& proc : assignment.processors) {
      w.begin_object();
      w.member("utilization", proc.utilization());
      const ProcessorRta rta = analyze_processor(proc.subtasks);
      w.begin_array("subtasks");
      for (std::size_t s = 0; s < proc.subtasks.size(); ++s) {
        const Subtask& subtask = proc.subtasks[s];
        w.begin_object();
        w.member("task", static_cast<std::uint64_t>(subtask.task_id));
        w.member("part", static_cast<std::int64_t>(subtask.part));
        w.member("wcet", subtask.wcet);
        w.member("period", subtask.period);
        w.member("deadline", subtask.deadline);
        w.member("response",
                 s < rta.response.size() ? rta.response[s] : Time{0});
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

void robustness(JsonWriter& w, const JsonValue& request, const Router& router) {
  const RouterConfig& config = router.config();
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
  w.member("algorithm", p.algorithm->name());
  write_task_set_summary(w, p.tasks, p.processors);
  w.member("accepted", assignment.success);
  if (!assignment.success) return;

  const RobustnessReport report =
      analyze_robustness(p.tasks, assignment, robustness);
  w.member("simulated_overrun_margin", report.simulated_overrun_margin);
  w.member("simulated_jitter_margin", report.simulated_jitter_margin);
  w.member("analytic_supported", report.analytic_supported);
  if (report.analytic_supported) {
    w.member("analytic_overrun_margin", report.analytic_overrun_margin);
    w.member("analytic_jitter_margin", report.analytic_jitter_margin);
  }
}

void simulate(JsonWriter& w, const JsonValue& request, const Router& router) {
  const RouterConfig& config = router.config();
  const PartitionRequest p = parse_partition_request(request, config);
  SimConfig sim;
  sim.policy = p.policy;
  sim.faults = parse_faults(request);
  sim.stop_at_first_miss = false;
  const Time cap = optional_int(request, "horizon_cap", config.sim_horizon_cap,
                                1, config.sim_horizon_cap);
  sim.horizon = recommended_horizon(p.tasks, cap);

  const Assignment assignment = p.algorithm->partition(p.tasks, p.processors);
  w.member("algorithm", p.algorithm->name());
  write_task_set_summary(w, p.tasks, p.processors);
  w.member("accepted", assignment.success);
  if (!assignment.success) return;

  // One workspace per worker thread: repeated simulate requests on a
  // connection reuse it allocation-free (the PR 3 hot path).
  thread_local SimWorkspace workspace;
  const SimResult& run = simulate(p.tasks, assignment, sim, workspace);
  w.member("schedulable", run.schedulable);
  w.member("simulated_until", run.simulated_until);
  w.member("events", run.events);
  w.member("jobs_released", run.jobs_released);
  w.member("jobs_completed", run.jobs_completed);
  w.member("preemptions", run.preemptions);
  w.member("migrations", run.migrations);
  w.member("misses", run.misses.size());
  if (!run.misses.empty()) {
    constexpr std::size_t kMaxEchoedMisses = 8;
    w.begin_array("first_misses");
    for (std::size_t i = 0; i < run.misses.size() && i < kMaxEchoedMisses; ++i) {
      w.begin_object();
      w.member("task", static_cast<std::uint64_t>(run.misses[i].task));
      w.member("release", run.misses[i].release);
      w.member("deadline", run.misses[i].deadline);
      w.end_object();
    }
    w.end_array();
  }
  if (sim.faults.active()) {
    w.member("degraded", run.jobs_degraded);
    w.member("aborted", run.jobs_aborted);
    w.member("demoted", run.jobs_demoted);
    w.member("orphaned", run.subtasks_orphaned);
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

void session_open(JsonWriter& w, const JsonValue& request,
                  const Router& router) {
  const RouterConfig& config = router.config();
  const online::SessionConfig session = parse_session_config(request, config);
  const online::SessionId id = router.sessions().open(session);
  if (id == 0) {
    reject("too many open sessions (limit " +
           std::to_string(config.max_sessions) + ")");
  }
  w.member("session", id);
  w.member("processors", session.processors);
  w.member("max_resident", session.max_resident);
}

void session_admit(JsonWriter& w, const JsonValue& request,
                   const Router& router) {
  const std::int64_t wcet =
      require_int(request, "wcet", 1, online::PartitionSession::kMaxPeriod);
  const std::int64_t period =
      require_int(request, "period", 1, online::PartitionSession::kMaxPeriod);
  const auto handle = lock_session(request, router);
  const online::AdmitResult result = handle.session().admit(wcet, period);
  w.member("accepted", result.admitted);
  if (result.admitted) {
    w.member("ticket", result.ticket);
    w.member("parts", result.parts);
  } else {
    w.member("reason", result.reason);
  }
}

void session_depart(JsonWriter& w, const JsonValue& request,
                    const Router& router) {
  const std::int64_t ticket = require_int(
      request, "ticket", 1, std::numeric_limits<std::int64_t>::max());
  const auto handle = lock_session(request, router);
  const bool departed =
      handle.session().depart(static_cast<online::Ticket>(ticket));
  w.member("departed", departed);
}

void session_rebalance(JsonWriter& w, const JsonValue& request,
                       const Router& router) {
  const auto handle = lock_session(request, router);
  w.member("migrations", handle.session().rebalance());
}

void session_stats(JsonWriter& w, const JsonValue& request,
                   const Router& router) {
  const auto handle = lock_session(request, router);
  write_session_stats(w, handle.session().stats());
}

void session_close(JsonWriter& w, const JsonValue& request,
                   const Router& router) {
  const std::int64_t id = require_int(
      request, "session", 1, std::numeric_limits<std::int64_t>::max());
  w.member("closed",
           router.sessions().close(static_cast<online::SessionId>(id)));
}

void stats(JsonWriter& w, const JsonValue&, const Router& router) {
  write_stats(w, router.snapshot());
}

void metrics(JsonWriter& w, const JsonValue&, const Router& router) {
  w.member("content_type", "text/plain; version=0.0.4");
  w.member("text", router.metrics_exposition());
}

}  // namespace handlers

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
  const Op* op = find_op(op_field->as_string());
  if (op == nullptr) {
    return {error_reply("unknown op '" + std::string(op_field->as_string()) +
                        "'"),
            Endpoint::kMalformed, true};
  }
  const JsonValue* id = request.find("id");

  const auto fail = [&](std::string_view message) {
    JsonWriter w;
    begin_reply(w, false, op->name, id);
    w.member("error", message);
    w.end_object();
    return HandleOutcome{w.str(), op->endpoint, true};
  };

  try {
    const trace::Span span(op->stage);
    JsonWriter w;
    begin_reply(w, true, op->name, id);
    op->handler(w, request, *this);
    w.end_object();
    return {w.str(), op->endpoint, false};
  } catch (const ProtocolError& error) {
    return fail(error.message);
  } catch (const Error& error) {
    // Library contract violations (invalid task parameters, malformed
    // fault models) -- expected for hostile inputs, reported verbatim.
    return fail(error.what());
  }
}

MetricsSnapshot Router::snapshot() const {
  // Built in place: a default-constructed histogram allocates and zeroes
  // its buckets, which a stats request would then throw away.
  return MetricsSnapshot{
      metrics_.snapshot_all(),
      runtime_ ? std::optional<RuntimeStats>(runtime_()) : std::nullopt,
      sessions_.all_stats(),
      sessions_.totals(),
      trace::compiled_in() && trace::enabled(),
      trace::snapshot(),
  };
}

std::string Router::metrics_exposition() const {
  return exposition(snapshot());
}

HandleOutcome Router::oversized_line() const {
  return {error_reply("line too long"), Endpoint::kMalformed, true};
}

}  // namespace rmts::server
