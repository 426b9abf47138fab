// Task-set text I/O and the CLI front end.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "io/cli_app.hpp"
#include "io/taskset_io.hpp"
#include "workload/generators.hpp"

namespace rmts {
namespace {

TEST(TaskSetIo, ParsesTasksCommentsAndBlanks) {
  std::istringstream input(
      "# header comment\n"
      "\n"
      "875 2500\n"
      "1500 5000  # trailing comment\n"
      "   750   2500\n");
  const TaskSet tasks = read_task_set(input);
  ASSERT_EQ(tasks.size(), 3u);
  EXPECT_EQ(tasks[0].wcet, 875);   // file order id 0, shortest period first
  EXPECT_EQ(tasks[1].wcet, 750);
  EXPECT_EQ(tasks[2].period, 5000);
}

TEST(TaskSetIo, RejectsMalformedLines) {
  std::istringstream missing_field("875\n");
  EXPECT_THROW((void)read_task_set(missing_field), InvalidTaskError);
  std::istringstream extra_field("875 2500 99\n");
  EXPECT_THROW((void)read_task_set(extra_field), InvalidTaskError);
  std::istringstream garbage("abc def\n");
  EXPECT_THROW((void)read_task_set(garbage), InvalidTaskError);
}

TEST(TaskSetIo, RejectsInvalidParameters) {
  std::istringstream zero_period("10 0\n");
  EXPECT_THROW((void)read_task_set(zero_period), InvalidTaskError);
  std::istringstream overutilized("20 10\n");
  EXPECT_THROW((void)read_task_set(overutilized), InvalidTaskError);
}

TEST(TaskSetIo, RoundTripsThroughText) {
  const TaskSet original = TaskSet::from_pairs({{875, 2500}, {1500, 5000}});
  std::ostringstream written;
  write_task_set(written, original);
  std::istringstream reread_input(written.str());
  const TaskSet reread = read_task_set(reread_input);
  ASSERT_EQ(reread.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reread[i].wcet, original[i].wcet);
    EXPECT_EQ(reread[i].period, original[i].period);
  }
}

TEST(TaskSetIo, LoadFromMissingFileThrows) {
  EXPECT_THROW((void)load_task_set("/nonexistent/path/tasks.txt"),
               InvalidConfigError);
}

TEST(TaskSetIo, ToleratesCrlfLineEndings) {
  std::istringstream input(
      "# dos file\r\n"
      "875 2500\r\n"
      "\r\n"
      "750 2500\r\n");
  const TaskSet tasks = read_task_set(input);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_EQ(tasks[0].wcet, 875);
  EXPECT_EQ(tasks[1].wcet, 750);
}

/// Expects `input` to raise InvalidTaskError whose message names line
/// `line_number`.
void expect_line_error(const std::string& input, int line_number) {
  std::istringstream stream(input);
  try {
    (void)read_task_set(stream);
    FAIL() << "accepted: " << input;
  } catch (const InvalidTaskError& error) {
    EXPECT_NE(std::string(error.what())
                  .find("line " + std::to_string(line_number)),
              std::string::npos)
        << error.what();
  }
}

TEST(TaskSetIo, RejectsOverflowingValuesWithLineNumber) {
  expect_line_error("99999999999999999999999999 5000\n", 1);
  expect_line_error("10 100\n20 99999999999999999999999999\n", 2);
}

TEST(TaskSetIo, RejectsTrailingGarbageWithLineNumber) {
  expect_line_error("2500x 5000\n", 1);
  expect_line_error("10 100\n20 200z\n", 2);
  expect_line_error("10 100\n20 200 300\n", 2);
}

TEST(TaskSetIo, RejectsParameterViolationsWithLineNumber) {
  expect_line_error("0 100\n", 1);
  expect_line_error("-5 100\n", 1);
  expect_line_error("10 100\n10 0\n", 2);
  expect_line_error("10 100\n10 -100\n", 2);
  expect_line_error("10 100\n300 200\n", 2);  // wcet > period
}

TEST(TaskSetIo, RandomRoundTripProperty) {
  // Any generated workload survives write -> read unchanged (RM order is
  // canonical on both sides).
  Rng rng(99);
  WorkloadConfig config;
  config.tasks = 10;
  config.processors = 4;
  config.normalized_utilization = 0.6;
  for (int i = 0; i < 25; ++i) {
    const TaskSet original = generate(rng, config);
    std::ostringstream written;
    write_task_set(written, original);
    std::istringstream reread_input(written.str());
    const TaskSet reread = read_task_set(reread_input);
    ASSERT_EQ(reread.size(), original.size());
    for (std::size_t t = 0; t < original.size(); ++t) {
      EXPECT_EQ(reread[t].wcet, original[t].wcet);
      EXPECT_EQ(reread[t].period, original[t].period);
    }
  }
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs the CliTest cases as parallel
    // processes, and a shared name let one case's TearDown delete the
    // file under another.
    path_ = ::testing::TempDir() + "cli_tasks_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".txt";
    std::ofstream file(path_);
    // Harmonic, 3 tasks, U = 2.25: needs splitting on 3 processors at
    // U_M = 0.75.
    file << "750 1000\n750 1000\n1500 2000\n";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  int run(const std::vector<std::string>& args) {
    out_.str("");
    err_.str("");
    return run_cli(args, out_, err_);
  }

  std::string path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, PartitionsAndSimulates) {
  const int code = run({path_, "-m", "3", "-a", "rmts", "-b", "hc",
                        "--simulate", "--bounds"});
  EXPECT_EQ(code, 0) << err_.str();
  const std::string output = out_.str();
  EXPECT_NE(output.find("SUCCESS"), std::string::npos);
  EXPECT_NE(output.find("no deadline misses"), std::string::npos);
  EXPECT_NE(output.find("HC = 1"), std::string::npos);
}

TEST_F(CliTest, ReportsUnschedulable) {
  const int code = run({path_, "-m", "2"});  // U_M = 1.125
  EXPECT_EQ(code, 1);
  EXPECT_NE(out_.str().find("FAILURE"), std::string::npos);
}

TEST_F(CliTest, EveryAlgorithmRuns) {
  for (const char* algorithm :
       {"rmts", "rmts-light", "spa1", "spa2", "prm-ff", "edf-ts"}) {
    const int code = run({path_, "-m", "4", "-a", algorithm, "--simulate"});
    EXPECT_EQ(code, 0) << algorithm << ": " << err_.str() << out_.str();
  }
}

TEST_F(CliTest, GanttChartRendered) {
  const int code = run({path_, "-m", "3", "--gantt"});
  EXPECT_EQ(code, 0) << err_.str();
  const std::string output = out_.str();
  EXPECT_NE(output.find("one column ="), std::string::npos);
  EXPECT_NE(output.find("P1 "), std::string::npos);
  EXPECT_NE(output.find("P3 "), std::string::npos);
}

TEST_F(CliTest, FaultInjectionFlagsDriveTheSimulation) {
  // Budget enforcement contains a 2x overrun: exit 0, no misses, aborts
  // reported in the fault counter line.
  const int code = run({path_, "-m", "3", "--fault-factor", "2.0",
                        "--fault-seed", "7", "--containment", "budget"});
  EXPECT_EQ(code, 0) << err_.str();
  const std::string output = out_.str();
  EXPECT_NE(output.find("no deadline misses"), std::string::npos) << output;
  EXPECT_NE(output.find("fault injection:"), std::string::npos) << output;
  EXPECT_NE(output.find("degraded"), std::string::npos) << output;

  // The same overrun uncontained misses: exit 1.
  EXPECT_EQ(run({path_, "-m", "3", "--fault-factor", "2.0"}), 1);
}

TEST_F(CliTest, RobustnessModeReportsMargins) {
  const int code = run({path_, "-m", "3", "--robustness"});
  EXPECT_EQ(code, 0) << err_.str();
  const std::string output = out_.str();
  EXPECT_NE(output.find("robustness margins"), std::string::npos) << output;
  EXPECT_NE(output.find("overrun factor: simulated"), std::string::npos)
      << output;
  EXPECT_NE(output.find("release jitter: simulated"), std::string::npos)
      << output;
}

TEST_F(CliTest, RejectsBadFaultArguments) {
  EXPECT_EQ(run({path_, "-m", "3", "--containment", "nope"}), 2);
  EXPECT_EQ(run({path_, "-m", "3", "--simulate", "--fault-prob", "2.0"}), 2);
  EXPECT_EQ(run({path_, "-m", "3", "--fail-proc", "9", "--simulate"}), 2);
  EXPECT_EQ(run({path_, "-m", "3", "--fault-factor"}), 2);  // missing value
}

TEST_F(CliTest, UsageErrors) {
  EXPECT_EQ(run({}), 2);
  EXPECT_EQ(run({path_}), 2);                          // missing -m
  EXPECT_EQ(run({path_, "-m", "2", "-a", "nope"}), 2);  // bad algorithm
  EXPECT_EQ(run({path_, "-m", "2", "-b", "nope"}), 2);  // bad bound
  EXPECT_EQ(run({path_, "-m", "2", "--frobnicate"}), 2);
  EXPECT_EQ(run({"/nonexistent.txt", "-m", "2"}), 2);
  EXPECT_NE(err_.str().find("usage:"), std::string::npos);
}

}  // namespace
}  // namespace rmts
