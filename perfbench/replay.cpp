#include "replay.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <thread>

#include "bounds/harmonic.hpp"
#include "common/rng.hpp"
#include "online/session.hpp"
#include "partition/rmts.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/metrics.hpp"
#include "server/protocol.hpp"
#include "server/router.hpp"
#include "tasks/task_set.hpp"

namespace perfbench {

namespace {

/// Session utilization is sampled at fixed op indices: every this many
/// measured ops of a connection.
constexpr std::size_t kUtilizationEvery = 64;

/// Replay-only requests get ids of their own, apart from live ones.
constexpr std::uint64_t kReplayIdBase = std::uint64_t{0xFF} << 40;

std::uint32_t elapsed_ns(Clock::time_point start, Clock::time_point end) {
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  return static_cast<std::uint32_t>(std::min<std::int64_t>(
      ns, std::numeric_limits<std::uint32_t>::max()));
}

double us(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - start).count();
}

void replay_connection(const ChurnWorkload& workload,
                       const std::vector<ChurnOp>& log, std::size_t conn,
                       std::size_t phases, ChurnReplay& out,
                       std::vector<std::uint32_t>& op_ns, SpanLog* spans,
                       const std::vector<bool>& traced) {
  rmts::online::PartitionSession session(workload.session);
  op_ns.reserve(log.size());
  std::uint64_t window_ops = 0;
  bool counting = false;
  bool counted = false;
  std::uint64_t migrations_at_start = 0;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const ChurnOp& op = log[i];
    const bool timed = measured(op, phases);
    if (timed && window_ops % kUtilizationEvery == 0) {
      const rmts::online::SessionStats stats = session.stats();
      out.utilization_sum += stats.normalized_utilization;
      ++out.utilization_samples;
      if (!counting) migrations_at_start = stats.migrations_total;
      counting = true;
    }
    if (!timed && counting && !counted) {
      out.migrations += session.stats().migrations_total - migrations_at_start;
      counted = true;
    }

    const auto [wcet, period] = workload.tasks[op.task];
    bool match = false;
    std::string replayed;
    const Clock::time_point start = Clock::now();
    if (op.depart) {
      const bool departed = session.depart(op.ticket);
      op_ns.push_back(elapsed_ns(start, Clock::now()));
      match = departed == op.verdict;
      if (!match) replayed = "departed=" + std::to_string(departed);
    } else {
      const rmts::online::AdmitResult result = session.admit(wcet, period);
      op_ns.push_back(elapsed_ns(start, Clock::now()));
      match = result.admitted == op.verdict &&
              (!result.admitted ||
               (result.ticket == op.ticket && result.parts == op.parts));
      if (timed) {
        ++out.admits;
        if (result.admitted) {
          ++out.accepted;
          if (result.parts > 1) ++out.split_accepted;
        }
      }
      if (!match) {
        replayed = "accepted=" + std::to_string(result.admitted) +
                   " ticket=" + std::to_string(result.ticket) +
                   " parts=" + std::to_string(result.parts);
      }
    }
    if (timed) {
      ++out.ops;
      ++window_ops;
      if (spans != nullptr && traced[op.phase]) {
        spans->add(op.depart ? SpanName::kOnlineDepart : SpanName::kOnlineAdmit,
                   request_id(conn, op.seq), -1, start,
                   start + std::chrono::nanoseconds(op_ns.back()));
      }
    }
    if (!match) {
      ++out.mismatches[op.phase];
      if (out.first_mismatch.empty()) {
        out.first_mismatch =
            "connection " + std::to_string(conn) + " op " + std::to_string(i) +
            (op.depart ? " depart(" + std::to_string(op.ticket) + ")"
                       : " admit(" + std::to_string(wcet) + ", " +
                             std::to_string(period) + ")") +
            ": server said " + (op.depart ? "departed=" : "accepted=") +
            std::to_string(op.verdict) + " ticket=" + std::to_string(op.ticket) +
            " parts=" + std::to_string(op.parts) + ", replay " + replayed;
      }
    }
  }
  if (counting && !counted) {
    out.migrations += session.stats().migrations_total - migrations_at_start;
  }
}

void merge(ChurnReplay& into, const ChurnReplay& part) {
  for (std::size_t p = 0; p < into.mismatches.size(); ++p) {
    into.mismatches[p] += part.mismatches[p];
  }
  if (into.first_mismatch.empty()) into.first_mismatch = part.first_mismatch;
  into.admits += part.admits;
  into.accepted += part.accepted;
  into.split_accepted += part.split_accepted;
  into.migrations += part.migrations;
  into.ops += part.ops;
  into.utilization_sum += part.utilization_sum;
  into.utilization_samples += part.utilization_samples;
}

void finish(LayerTimes& t, const double sums[6]) {
  if (t.requests == 0) return;
  const auto n = static_cast<double>(t.requests);
  t.decode_us = sums[0] / n;
  t.parse_us = sums[1] / n;
  t.validate_us = sums[2] / n;
  t.bound_us = sums[3] / n;
  t.partition_us = sums[4] / n;
  t.handle_us = sums[5] / n;
}

}  // namespace

bool measured(const ChurnOp& op, std::size_t phases) noexcept {
  const std::size_t phase = op.phase;
  return phase >= kFirstWindow && phase + 1 < phases;
}

ChurnReplay replay_churn(const ChurnWorkload& workload,
                         const std::vector<std::vector<ChurnOp>>& logs,
                         std::size_t phases, SpanLog* spans,
                         const std::vector<bool>& traced) {
  std::vector<ChurnReplay> parts(logs.size());
  ChurnReplay out;
  out.op_ns.resize(logs.size());
  for (ChurnReplay& part : parts) part.mismatches.assign(phases, 0);
  if (spans != nullptr) {
    for (std::size_t c = 0; c < logs.size(); ++c) {
      replay_connection(workload, logs[c], c, phases, parts[c], out.op_ns[c],
                        spans, traced);
    }
  } else {
    std::vector<std::thread> threads;
    threads.reserve(logs.size());
    for (std::size_t c = 0; c < logs.size(); ++c) {
      threads.emplace_back([&, c] {
        replay_connection(workload, logs[c], c, phases, parts[c], out.op_ns[c],
                          nullptr, traced);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  out.mismatches.assign(phases, 0);
  for (const ChurnReplay& part : parts) merge(out, part);
  return out;
}

LayerTimes replay_admit_layers(const AdmitWorkload& workload,
                               std::uint64_t seed, double seconds,
                               SpanLog& spans) {
  const rmts::Rmts reference(std::make_shared<rmts::HarmonicChainBound>());
  const rmts::server::Metrics metrics;
  const rmts::server::Router router(rmts::server::RouterConfig{}, metrics);
  rmts::server::LineDecoder decoder;
  std::vector<std::string> framed;
  for (const AdmitCase& c : workload.pool) framed.push_back(c.line + '\n');
  std::vector<std::size_t> order(workload.pool.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rmts::Rng rng = rmts::Rng(seed).fork(0x2000);

  LayerTimes t;
  double sums[6] = {};
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    }
    for (const std::size_t k : order) {
      const AdmitCase& c = workload.pool[k];
      rmts::server::LineDecoder::Line line;
      rmts::server::JsonValue doc;
      std::string error;
      Clock::time_point at[7];
      at[0] = Clock::now();
      decoder.feed(framed[k]);
      const bool framed_ok = decoder.next(line);
      at[1] = Clock::now();
      const bool parsed = rmts::server::json_parse(c.line, doc, error);
      at[2] = Clock::now();
      const rmts::TaskSet tasks = rmts::TaskSet::from_pairs(c.pairs);
      at[3] = Clock::now();
      const double bound = reference.guaranteed_bound(tasks);
      at[4] = Clock::now();
      const rmts::Assignment verdict = reference.partition(tasks, workload.processors);
      at[5] = Clock::now();
      const rmts::server::HandleOutcome reply = router.handle(c.line);
      at[6] = Clock::now();

      t.verdicts_match = t.verdicts_match && framed_ok && line.text == c.line &&
                         parsed && bound > 0.0 && !reply.error &&
                         verdict.success == c.accepted &&
                         verdict.split_task_count() == c.splits &&
                         verdict.subtask_count() == c.subtasks;
      const std::uint64_t id = kReplayIdBase | t.requests;
      const std::int32_t parent =
          spans.add(SpanName::kReplayRequest, id, -1, at[0], at[6]);
      static constexpr SpanName kLayers[6] = {
          SpanName::kProtocolDecode,   SpanName::kJsonParse,
          SpanName::kTasksValidate,    SpanName::kBoundsGuaranteed,
          SpanName::kPartitionPartition, SpanName::kRouterHandle};
      for (std::size_t l = 0; l < 6; ++l) {
        spans.add(kLayers[l], id, parent, at[l], at[l + 1]);
        sums[l] += us(at[l], at[l + 1]);
      }
      ++t.requests;
    }
  } while (Clock::now() < deadline);
  finish(t, sums);
  return t;
}

LayerTimes replay_session_layers(const ChurnWorkload& workload,
                                 const std::vector<ChurnOp>& log,
                                 const std::vector<bool>& timed,
                                 SpanLog& spans) {
  const rmts::server::Metrics metrics;
  const rmts::server::Router router(rmts::server::RouterConfig{}, metrics);
  rmts::server::LineDecoder decoder;
  LayerTimes t;
  const rmts::server::HandleOutcome opened = router.handle(workload.open_line);
  const std::size_t key = opened.reply.find("\"session\":");
  if (opened.error || key == std::string::npos) {
    t.verdicts_match = false;
    return t;
  }
  const std::uint64_t session = std::stoull(opened.reply.substr(key + 10));

  double sums[6] = {};
  for (const ChurnOp& op : log) {
    const std::string line =
        op.depart ? rmts::server::make_session_depart_request(session, op.ticket)
                  : rmts::server::make_session_admit_request(
                        session, workload.tasks[op.task].first,
                        workload.tasks[op.task].second);
    if (!timed[op.phase]) {
      (void)router.handle(line);
      continue;
    }
    const std::string framed = line + '\n';
    rmts::server::LineDecoder::Line decoded;
    rmts::server::JsonValue doc;
    std::string error;
    Clock::time_point at[4];
    at[0] = Clock::now();
    decoder.feed(framed);
    const bool framed_ok = decoder.next(decoded);
    at[1] = Clock::now();
    const bool parsed = rmts::server::json_parse(line, doc, error);
    at[2] = Clock::now();
    const rmts::server::HandleOutcome reply = router.handle(line);
    at[3] = Clock::now();

    const std::string expected = std::string(op.depart ? "\"departed\":" : "\"accepted\":") +
                                 (op.verdict ? "true" : "false");
    t.verdicts_match = t.verdicts_match && framed_ok && parsed && !reply.error &&
                       reply.reply.find(expected) != std::string::npos;
    const std::uint64_t id = request_id(0, op.seq);
    const std::int32_t parent =
        spans.add(SpanName::kReplayRequest, id, -1, at[0], at[3]);
    spans.add(SpanName::kProtocolDecode, id, parent, at[0], at[1]);
    spans.add(SpanName::kJsonParse, id, parent, at[1], at[2]);
    spans.add(SpanName::kRouterHandle, id, parent, at[2], at[3]);
    sums[0] += us(at[0], at[1]);
    sums[1] += us(at[1], at[2]);
    sums[5] += us(at[2], at[3]);
    ++t.requests;
  }
  finish(t, sums);
  return t;
}

}  // namespace perfbench
