// Golden digests: one FNV-1a hash over every subtask RM-TS places for a
// pool of admit-large-shaped task sets, one over a seeded
// PartitionSession op trace (each admit/depart outcome plus periodic
// snapshots of every hosted subtask), and one over the exact reply bytes
// Router::handle returns for a seeded mix of protocol lines.  The first
// two expected values were recorded from the scheduling-point MaxSplit
// this library shipped before its binary search, the third from the
// tree-of-values JSON parser, strtod/snprintf numbers and Kuhn matching
// the server shipped before its flat document, to_chars replies and
// bitset matching; a changed digest means some split body, placement,
// verdict or reply byte moved.  Update a constant only for an intended
// change, and say which one in the commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bounds/harmonic.hpp"
#include "common/rng.hpp"
#include "online/session.hpp"
#include "partition/rmts.hpp"
#include "server/client.hpp"
#include "server/metrics.hpp"
#include "server/router.hpp"
#include "workload/generators.hpp"

namespace rmts {
namespace {

class Digest {
 public:
  void add(std::uint64_t word) noexcept {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const Subtask& s) noexcept {
    add(s.priority);
    add(s.task_id);
    add(static_cast<std::uint64_t>(s.part));
    add(static_cast<std::uint64_t>(s.wcet));
    add(static_cast<std::uint64_t>(s.period));
    add(static_cast<std::uint64_t>(s.deadline));
    add(static_cast<std::uint64_t>(s.kind));
  }
  void add(std::string_view bytes) noexcept {
    add(bytes.size());
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_{0xcbf29ce484222325ULL};
};

// 256 sets shaped like the admit-large benchmark pool: N=64 tasks on M=16
// processors, log-uniform periods in [10^3, 10^6], U_M evenly spread over
// the acceptance cliff [0.90, 0.98], RM-TS with the harmonic-chain bound.
TEST(VerdictDigest, RmtsAdmitLargeShapedPool) {
  constexpr std::size_t kSets = 256;
  WorkloadConfig config;
  config.tasks = 64;
  config.processors = 16;
  const Rmts rmts(std::make_shared<HarmonicChainBound>());
  const Rng rng(1);
  Digest digest;
  std::size_t accepted = 0;
  std::size_t splits = 0;
  for (std::size_t i = 0; i < kSets; ++i) {
    config.normalized_utilization =
        0.90 + 0.08 * (static_cast<double>(i) + 0.5) / static_cast<double>(kSets);
    Rng sample = rng.fork(i);
    const TaskSet tasks = generate(sample, config);
    const Assignment assignment = rmts.partition(tasks, config.processors);
    digest.add(assignment.success ? 1U : 0U);
    for (const ProcessorAssignment& processor : assignment.processors) {
      digest.add(processor.subtasks.size());
      for (const Subtask& s : processor.subtasks) digest.add(s);
    }
    for (const TaskId id : assignment.unassigned) digest.add(id);
    accepted += assignment.success ? 1U : 0U;
    splits += assignment.split_task_count();
  }
  // Both verdicts occur and MaxSplit runs, or the digest proves little.
  EXPECT_GT(accepted, kSets / 8);
  EXPECT_LT(accepted, kSets);
  EXPECT_GT(splits, kSets);
  EXPECT_EQ(digest.value(), 0xc38df929da971923ULL)
      << std::hex << digest.value();
}

// A session-churn-shaped trace: M=8, filled until 16 admits in a row are
// rejected, then 40 % departs of a random live ticket and 60 % admits.
TEST(VerdictDigest, SessionOpTrace) {
  online::SessionConfig config;
  config.processors = 8;
  online::PartitionSession session(config);
  Rng rng(2);
  Digest digest;
  std::vector<online::Ticket> live;
  std::size_t split_admits = 0;

  const auto snapshot = [&] {
    for (const ProcessorState& processor : session.processors()) {
      digest.add(processor.subtasks().size());
      for (const Subtask& s : processor.subtasks()) digest.add(s);
    }
  };
  const auto admit = [&] {
    const Time period = rng.log_uniform_time(1'000, 1'000'000);
    const double share = rng.uniform(0.02, 0.45);
    const auto wcet = std::max<Time>(
        1, static_cast<Time>(share * static_cast<double>(period)));
    const online::AdmitResult result = session.admit(wcet, period);
    digest.add(result.admitted ? 1U : 0U);
    digest.add(result.ticket);
    digest.add(result.parts);
    digest.add(result.reason.size());
    if (result.admitted) live.push_back(result.ticket);
    if (result.parts > 1) ++split_admits;
    return result.admitted;
  };

  for (int rejected = 0; rejected < 16;) rejected = admit() ? 0 : rejected + 1;
  snapshot();
  for (int op = 0; op < 20'000; ++op) {
    if (!live.empty() && rng.uniform() < 0.4) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      digest.add(session.depart(live[k]) ? 1U : 0U);
      live[k] = live.back();
      live.pop_back();
    } else {
      admit();
    }
    if (op % 512 == 511) snapshot();
  }
  snapshot();
  ASSERT_EQ(session.check_invariants(), "");
  EXPECT_GT(split_admits, 100U);
  EXPECT_EQ(digest.value(), 0x58df79ea70386683ULL)
      << std::hex << digest.value();
}

// Every reply byte of a seeded protocol session: admit lines shaped like
// both admit benchmarks (and under the other algorithms), admit_batch,
// analyze, simulate and robustness lines, a session's open/admit/depart/
// rebalance/stats/close ops, ids of every scalar kind, and malformed
// lines -- truncated or byte-mutated admits whose parse errors name byte
// offsets, and well-formed requests the router rejects.  Covers the JSON
// parser's verdicts and error text, every number the reply writer renders
// and the harmonic-chain bound each RM-TS admit reports.
TEST(VerdictDigest, RouterReplyBytes) {
  const server::Metrics metrics;
  const server::Router router(server::RouterConfig{}, metrics);
  Digest digest;
  std::size_t lines = 0;
  std::size_t errors = 0;
  const auto send = [&](const std::string& line) {
    const server::HandleOutcome outcome = router.handle(line);
    digest.add(line);
    digest.add(outcome.reply);
    ++lines;
    errors += outcome.error ? 1U : 0U;
    return outcome.reply;
  };

  const Rng rng(3);
  const auto make_set = [&](std::uint64_t stream, std::size_t n, std::size_t m,
                            double normalized) {
    WorkloadConfig config;
    config.tasks = n;
    config.processors = m;
    config.normalized_utilization = normalized;
    Rng sample = rng.fork(stream);
    return generate(sample, config);
  };

  std::vector<std::string> admits;
  for (std::uint64_t i = 0; i < 48; ++i) {  // admit-small-shaped
    admits.push_back(server::make_admit_request(
        4, make_set(i, 16, 4, 0.6), {}, {}, static_cast<std::int64_t>(i)));
  }
  for (std::uint64_t i = 0; i < 24; ++i) {  // admit-large-shaped
    const double normalized = 0.90 + 0.08 * (static_cast<double>(i) + 0.5) / 24.0;
    admits.push_back(
        server::make_admit_request(16, make_set(100 + i, 64, 16, normalized)));
  }
  for (const std::string& line : admits) send(line);
  const TaskSet mid = make_set(200, 12, 3, 0.7);
  for (const char* alg : {"rmts-light", "spa1", "spa2", "prm-ff", "edf-ts"}) {
    send(server::make_admit_request(3, mid, alg));
  }
  for (const char* bound : {"ll", "tbound", "rbound", "burchard"}) {
    send(server::make_admit_request(3, mid, "rmts", bound));
  }

  std::vector<TaskSet> batch;
  for (std::uint64_t i = 0; i < 6; ++i) batch.push_back(make_set(300 + i, 10, 3, 0.75));
  send(server::make_admit_batch_request(3, batch));
  send(R"({"op":"admit_batch","m":2,"items":[{"tasks":[[1,4],[2,8]]},)"
       R"({"tasks":[[9,4]]},7,{"m":9999,"tasks":[[1,2]]},)"
       R"({"alg":"nope","tasks":[[1,2]]}]})");
  for (std::uint64_t i = 0; i < 4; ++i) {
    send(server::make_analyze_request(3, make_set(400 + i, 9, 3, 0.7)));
  }
  send(server::make_analyze_request(2, make_set(404, 6, 2, 0.7), "edf-ts"));
  send(server::make_simulate_request(2, make_set(410, 5, 2, 0.6)));
  send(server::make_robustness_request(2, make_set(420, 5, 2, 0.6), {}, {}, 2.0, 7));

  // One session: fill, churn, rebalance, inspect, close.
  const std::string opened = send(server::make_session_open_request(4));
  const std::size_t at = opened.find("\"session\":");
  ASSERT_NE(at, std::string::npos) << opened;
  const std::uint64_t session = std::stoull(opened.substr(at + 10));
  Rng ops = rng.fork(500);
  std::vector<std::uint64_t> tickets;
  for (int op = 0; op < 160; ++op) {
    if (!tickets.empty() && ops.uniform() < 0.35) {
      const auto k = static_cast<std::size_t>(
          ops.uniform_int(0, static_cast<std::int64_t>(tickets.size()) - 1));
      send(server::make_session_depart_request(session, tickets[k], op));
      tickets[k] = tickets.back();
      tickets.pop_back();
      continue;
    }
    const Time period = ops.log_uniform_time(1'000, 1'000'000);
    const auto wcet = std::max<Time>(
        1, static_cast<Time>(ops.uniform(0.02, 0.45) * static_cast<double>(period)));
    const std::string reply =
        send(server::make_session_admit_request(session, wcet, period, op));
    const std::size_t ticket = reply.find("\"ticket\":");
    if (ticket != std::string::npos) {
      tickets.push_back(std::stoull(reply.substr(ticket + 9)));
    }
    if (op % 40 == 39) {
      send(server::make_session_rebalance_request(session));
      send(server::make_session_stats_request(session));
    }
  }
  send(server::make_session_depart_request(session, 999'999));
  send(server::make_session_close_request(session));
  send(server::make_session_stats_request(session));

  // Echoed ids of every scalar kind, and requests the router rejects.
  for (const char* id : {"-0", "0.1", "1.5", "0.3000001", "0.1234567", "1e21",
                         "123456789.125", "-2.5e-300", "1e400", "9223372036854775808",
                         "\"a\\u00e9\\n\\\"b\"", "true", "null", "[1]", "{}"}) {
    send(std::string(R"({"op":"admit","m":2,"tasks":[[1,4],[1,8]],"id":)") + id + "}");
  }
  for (const char* line :
       {R"({"op":"admit","m":2,"tasks":[[0,4]]})",
        R"({"op":"admit","m":2,"tasks":[[5,4]]})",
        R"({"op":"admit","m":0,"tasks":[[1,4]]})",
        R"({"op":"admit","m":2.5,"tasks":[[1,4]]})",
        R"({"op":"admit","m":2,"tasks":[]})",
        R"({"op":"admit","m":2,"tasks":[[1,4,5]]})",
        R"({"op":"admit","m":2,"tasks":[[1,4]],"alg":"nope"})", R"({"op":"nope"})",
        R"({"op":7})", R"([1,2])", R"("admit")",
        R"({"op":"robustness","m":2,"tasks":[[1,4]],"max_factor":"x"})",
        "", "   ", "{\"op\":\"admit\"\u0001}", "{\"op\":\"a\\q\"}", "{\"s\":\"\\ud800\"}",
        "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[1]]]]]"}) {
    send(line);
  }
  Rng mutate = rng.fork(600);
  static constexpr std::string_view kBytes = "{}[]\",:-+.eE0123456789 tfnu\\\x01";
  for (int k = 0; k < 400; ++k) {
    std::string line = admits[static_cast<std::size_t>(
        mutate.uniform_int(0, static_cast<std::int64_t>(admits.size()) - 1))];
    if (k % 2 == 0) {
      line.resize(static_cast<std::size_t>(
          mutate.uniform_int(0, static_cast<std::int64_t>(line.size()) - 1)));
    } else {
      for (int edits = 0; edits < 1 + k % 3; ++edits) {
        line[static_cast<std::size_t>(mutate.uniform_int(
            0, static_cast<std::int64_t>(line.size()) - 1))] =
            kBytes[static_cast<std::size_t>(mutate.uniform_int(
                0, static_cast<std::int64_t>(kBytes.size()) - 1))];
      }
    }
    send(line);
  }

  EXPECT_GT(errors, 300U);
  EXPECT_LT(errors, lines - 100);
  EXPECT_EQ(digest.value(), 0x3f95df8e55c2fd25ULL) << std::hex << digest.value();
}

}  // namespace
}  // namespace rmts
