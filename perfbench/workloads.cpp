// Seeded inputs and their reference verdicts.  The server only ever sees
// the lines rendered here; nothing in them names the workload.
#include <memory>

#include "bounds/harmonic.hpp"
#include "common/rng.hpp"
#include "partition/rmts.hpp"
#include "perfbench.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/router.hpp"
#include "tasks/task_set.hpp"
#include "workload/generators.hpp"

namespace perfbench {

namespace {

/// Task sets per admit pool.  A request's cost depends on its set, so an
/// admit workload's p99 is set by the costliest 1 % of the pool; with 64
/// sets that is one set and the p99 follows the seed.  admit-small's
/// p99 still did at 512 sets, so it gets more (they cost ~10 us each).
constexpr std::size_t kAdmitPoolSize = 1024;
constexpr std::size_t kSmallPoolSize = 4096;
/// admit-small's sets draw their periods from this many log-uniform values,
/// about the size of the RTA kernel's 1,024-entry reciprocal memo.  The
/// values are the same for every seed: every set shares them, so a
/// per-seed draw would make the cost of the whole pool follow the seed.
constexpr std::size_t kSmallDistinctPeriods = 1024;
constexpr std::uint64_t kSmallPeriodSeed = 0x5EED;
/// Sets flattened into the session-churn task pool.
constexpr std::size_t kChurnSets = 64;

/// The set exactly as the server rebuilds it from the wire: pairs in RM
/// order, ids assigned in that order.
rmts::TaskSet as_wire_set(const rmts::TaskSet& generated) {
  std::vector<std::pair<Time, Time>> pairs;
  pairs.reserve(generated.size());
  for (const rmts::Task& task : generated) {
    pairs.emplace_back(task.wcet, task.period);
  }
  return rmts::TaskSet::from_pairs(pairs);
}

}  // namespace

const char* workload_name(Workload workload) noexcept {
  switch (workload) {
    case Workload::kAdmitSmall: return "admit-small";
    case Workload::kAdmitLarge: return "admit-large";
    case Workload::kSessionChurn: return "session-churn";
  }
  return "?";
}

AdmitWorkload make_admit_workload(Workload workload, std::uint64_t seed) {
  const bool large = workload == Workload::kAdmitLarge;
  rmts::WorkloadConfig config;
  // admit-large is N=64 rather than 128: at N=128 its live p99 (~7 ms) sat
  // within 3x of the 20 ms admit SLO, so a slowed host made the shipped
  // overload controller shed, and a shed fails the run.  N=64 keeps
  // partition most of a request at a third of that p99.
  config.tasks = large ? 64 : 16;
  config.processors = large ? 16 : 4;
  config.normalized_utilization = 0.6;

  // The server's defaults (alg "rmts", bound "hc") are what an admit line
  // without those fields selects; the reference is the same Partitioner.
  const rmts::Rmts reference(std::make_shared<rmts::HarmonicChainBound>());
  const std::size_t pool_size = large ? kAdmitPoolSize : kSmallPoolSize;
  AdmitWorkload out;
  out.processors = config.processors;
  out.pool.reserve(pool_size);
  const rmts::Rng rng(seed);
  if (!large) {
    rmts::Rng grid(kSmallPeriodSeed);
    config.period_model = rmts::PeriodModel::kGrid;
    config.period_grid.resize(kSmallDistinctPeriods);
    for (Time& period : config.period_grid) {
      period = grid.log_uniform_time(config.period_min, config.period_max);
    }
  }
  for (std::size_t i = 0; i < pool_size; ++i) {
    rmts::Rng sample = rng.fork(i);
    // admit-large spans the acceptance cliff, so both verdicts occur.  The
    // utilizations are evenly spaced rather than drawn: a request's cost
    // and verdict follow its utilization, so drawn ones made the pool's
    // mean cost and acceptance follow the seed.
    if (large) {
      config.normalized_utilization =
          0.90 + 0.08 * (static_cast<double>(i) + 0.5) /
                     static_cast<double>(pool_size);
    }
    const rmts::TaskSet tasks = as_wire_set(rmts::generate(sample, config));
    const rmts::Assignment verdict =
        reference.partition(tasks, config.processors);
    AdmitCase c;
    c.line = rmts::server::make_admit_request(config.processors, tasks);
    for (const rmts::Task& task : tasks) {
      c.pairs.emplace_back(task.wcet, task.period);
    }
    c.accepted = verdict.success;
    c.splits = verdict.split_task_count();
    c.subtasks = verdict.subtask_count();
    c.normalized_utilization = tasks.normalized_utilization(config.processors);
    out.pool.push_back(std::move(c));
  }
  return out;
}

ChurnWorkload make_churn_workload(std::uint64_t seed) {
  ChurnWorkload out;
  rmts::online::SessionConfig& session = out.session;
  session.processors = 8;
  session.allow_splitting = true;
  session.split_granularity = 1;
  session.rebalance_every = 16;
  session.max_migrations_per_round = 4;
  session.hysteresis = 0.10;
  session.max_resident = rmts::server::RouterConfig{}.max_session_residents;

  rmts::server::JsonWriter w;
  w.begin_object();
  w.key("op");
  w.value("session_open");
  w.key("m");
  w.value(session.processors);
  w.key("split");
  w.value(session.allow_splitting);
  w.key("granularity");
  w.value(static_cast<std::int64_t>(session.split_granularity));
  w.key("rebalance_every");
  w.value(session.rebalance_every);
  w.key("max_migrations");
  w.value(session.max_migrations_per_round);
  w.key("hysteresis");
  w.value(session.hysteresis);
  w.key("max_resident");
  w.value(session.max_resident);
  w.end_object();
  out.open_line = w.str();

  // Individual tasks drawn from flattened N=128, M=8, U_M=0.6 sets: per-task
  // utilization ~0.04, so a session holds a few hundred residents.  Periods
  // span [10^3, 3*10^4]: over the default three decades, the split admits
  // of the shortest-period tasks into a full session cost 10-100 ms and
  // make up ~1 % of admits, which leaves p99 on the edge of that mode and
  // swinging 2-5x with the seed.
  rmts::WorkloadConfig config;
  config.tasks = 128;
  config.processors = 8;
  config.normalized_utilization = 0.6;
  config.period_max = 30000;
  const rmts::Rng rng(seed);
  out.tasks.reserve(kChurnSets * config.tasks);
  for (std::size_t i = 0; i < kChurnSets; ++i) {
    rmts::Rng sample = rng.fork(i);
    for (const rmts::Task& task : rmts::generate(sample, config)) {
      out.tasks.emplace_back(task.wcet, task.period);
    }
  }
  return out;
}

}  // namespace perfbench
