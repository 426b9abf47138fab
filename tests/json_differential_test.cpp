// The shipped JSON codec against references that stay in the tests: the
// flat-document parser against the tree-of-values oracle
// (oracle/json_tree.hpp) on seeded random documents, mutated and
// truncated protocol lines and edge-case number tokens; json_number
// against printf's "%g"/"%.17g" with strtod deciding between them.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "oracle/json_differential.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "tasks/task_set.hpp"
#include "workload/generators.hpp"

namespace rmts {
namespace {

using oracle::json_parse_mismatch;

std::int64_t pick(Rng& rng, std::size_t size) {
  return rng.uniform_int(0, static_cast<std::int64_t>(size) - 1);
}

std::string whitespace(Rng& rng) {
  static constexpr std::string_view kSpaces[] = {"", "", "", " ", "\t", "\n ", "\r\n"};
  return std::string(kSpaces[pick(rng, std::size(kSpaces))]);
}

std::string random_number(Rng& rng) {
  std::string out;
  if (rng.uniform() < 0.3) out += '-';
  const auto digits = rng.uniform_int(1, rng.uniform() < 0.1 ? 30 : 8);
  out += static_cast<char>('0' + rng.uniform_int(digits > 1 ? 1 : 0, 9));
  for (std::int64_t d = 1; d < digits; ++d) {
    out += static_cast<char>('0' + rng.uniform_int(0, 9));
  }
  if (rng.uniform() < 0.3) {
    out += '.';
    for (std::int64_t d = rng.uniform_int(1, 20); d > 0; --d) {
      out += static_cast<char>('0' + rng.uniform_int(0, 9));
    }
  }
  if (rng.uniform() < 0.2) {
    out += rng.uniform() < 0.5 ? 'e' : 'E';
    if (rng.uniform() < 0.6) out += rng.uniform() < 0.5 ? '-' : '+';
    out += std::to_string(rng.uniform_int(0, 420));
  }
  return out;
}

std::string random_string(Rng& rng) {
  static constexpr std::string_view kPieces[] = {
      "a", "op", "admit", " ", "\\n", "\\t", "\\\"", "\\\\", "\\/", "\\b", "\\f",
      "\\r", "\\u00e9", "\\u0041", "\\u2028", "\\ud83d\\ude00", "\xc3\xa9",
      "\xf0\x9f\x98\x80", "{", "]", ",", ":"};
  std::string out = "\"";
  for (std::int64_t k = rng.uniform_int(0, 6); k > 0; --k) {
    out += kPieces[pick(rng, std::size(kPieces))];
  }
  return out + '"';
}

std::string random_value(Rng& rng, int depth) {
  const std::int64_t kind = rng.uniform_int(0, depth > 4 ? 5 : 7);
  switch (kind) {
    case 0: return "null";
    case 1: return rng.uniform() < 0.5 ? "true" : "false";
    case 2:
    case 3: return random_number(rng);
    case 4:
    case 5: return random_string(rng);
    case 6: {
      std::string out = "[" + whitespace(rng);
      for (std::int64_t i = rng.uniform_int(0, 5); i > 0; --i) {
        out += random_value(rng, depth + 1) + whitespace(rng);
        if (i > 1) out += "," + whitespace(rng);
      }
      return out + "]";
    }
    default: {
      static constexpr std::string_view kKeys[] = {"\"op\"", "\"id\"", "\"m\"",
                                                   "\"tasks\"", "\"\"",
                                                   "\"k\\u00e9y\""};
      std::string out = "{" + whitespace(rng);
      for (std::int64_t i = rng.uniform_int(0, 5); i > 0; --i) {
        out += std::string(kKeys[pick(rng, std::size(kKeys))]) + whitespace(rng) +
               ":" + whitespace(rng) + random_value(rng, depth + 1) + whitespace(rng);
        if (i > 1) out += "," + whitespace(rng);
      }
      return out + "}";
    }
  }
}

/// Truncates `text` or overwrites a few of its bytes.
std::string mutate(Rng& rng, std::string text) {
  static constexpr std::string_view kBytes =
      "{}[]\",:-+.eE0123456789 \ttfnlu\\\x01\x7f\xc3";
  if (text.empty()) return text;
  if (rng.uniform() < 0.4) {
    text.resize(static_cast<std::size_t>(pick(rng, text.size())));
    return text;
  }
  for (std::int64_t edits = rng.uniform_int(1, 3); edits > 0; --edits) {
    text[static_cast<std::size_t>(pick(rng, text.size()))] =
        kBytes[static_cast<std::size_t>(pick(rng, kBytes.size()))];
  }
  return text;
}

TEST(JsonDifferential, RandomDocumentsAndTheirMutations) {
  Rng rng(71);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    const std::string text = whitespace(rng) + random_value(rng, 0) + whitespace(rng);
    for (const std::string& input : {text, mutate(rng, text)}) {
      const std::string mismatch = json_parse_mismatch(input);
      ASSERT_EQ(mismatch, "") << input;
      server::JsonValue doc;
      std::string error;
      (server::json_parse(input, doc, error) ? accepted : rejected) += 1;
    }
  }
  // Both verdicts are well represented, or the comparison proves little.
  EXPECT_GT(accepted, 10'000U);
  EXPECT_GT(rejected, 5'000U);
}

TEST(JsonDifferential, MutatedAndTruncatedProtocolLines) {
  Rng rng(72);
  std::vector<std::string> lines;
  for (std::uint64_t i = 0; i < 16; ++i) {
    WorkloadConfig config;
    config.tasks = i % 2 == 0 ? 16 : 64;
    config.processors = i % 2 == 0 ? 4 : 16;
    Rng sample = rng.fork(i);
    const TaskSet tasks = generate(sample, config);
    lines.push_back(server::make_admit_request(config.processors, tasks, {}, {},
                                               static_cast<std::int64_t>(i)));
    lines.push_back(server::make_analyze_request(config.processors, tasks, "rmts", "ll"));
  }
  lines.push_back(server::make_session_open_request(8, false, 3, 250));
  lines.push_back(server::make_session_admit_request(12, 1'234, 56'789, 4));
  lines.push_back(server::make_session_depart_request(12, 99));
  lines.push_back(server::make_session_stats_request(12, 5));
  for (const std::string& line : lines) {
    ASSERT_EQ(json_parse_mismatch(line), "") << line;
    for (std::size_t cut = 0; cut <= line.size(); cut += 1 + line.size() / 97) {
      ASSERT_EQ(json_parse_mismatch(line.substr(0, cut)), "") << line.substr(0, cut);
    }
    for (int k = 0; k < 300; ++k) {
      const std::string input = mutate(rng, line);
      ASSERT_EQ(json_parse_mismatch(input), "") << input;
    }
  }
}

TEST(JsonDifferential, NumberTokens) {
  const std::vector<std::string> tokens = {
      "0", "-0", "-0.0", "0e0", "-0e-5", "1", "-1", "42", "9223372036854775807",
      "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
      "18446744073709551616", "9007199254740992", "9007199254740993",
      "-9007199254740993", "1e308", "1.7976931348623157e308",
      "1.7976931348623159e308", "1e309", "-1e309", "1e400", "1e-320",
      "4.9e-324", "2.4703282292062328e-324", "2.4703282292062327e-324", "1e-400",
      "-1e-400", "2.2250738585072011e-308", "0.1", "1E+2", "1e-0", "1.5e+0003",
      "123456789012345678901234567890.123456789012345678901234567890e-10",
      "0.000000000000000000000000000000000000000000000001234567890123456789",
      "100000000000000000000000000000000000000000000000000000000000000000000",
      // Tokens the grammar rejects.
      "01", "-", "1.", ".5", "1e", "+1", "--1", "1e+", "0x10", "Infinity", "NaN",
      "-Infinity", "1.e5", "1e5.5", "00", "-01"};
  for (const std::string& token : tokens) {
    for (const std::string& input :
         {token, "[" + token + "]", "{\"k\":" + token + "}",
          "[" + token + "," + token + "]", " " + token + " "}) {
      EXPECT_EQ(json_parse_mismatch(input), "") << input;
    }
  }
  // The sign of zero and out-of-range magnitudes, spelled out.
  server::JsonValue doc;
  std::string error;
  ASSERT_TRUE(server::json_parse("[-0,1e400,-1e-400,9223372036854775808]", doc, error));
  EXPECT_TRUE(doc.items()[0].is_int());
  EXPECT_TRUE(std::signbit(doc.items()[0].as_double()));
  EXPECT_EQ(doc.items()[1].as_double(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(doc.items()[2].as_double(), 0.0);
  EXPECT_TRUE(std::signbit(doc.items()[2].as_double()));
  EXPECT_FALSE(doc.items()[3].is_int());
  EXPECT_EQ(doc.items()[3].as_double(), 9223372036854775808.0);
}

TEST(JsonDifferential, NestingAtTheDepthCap) {
  for (const int depth : {1, 63, 64, 65, 66, 200}) {
    const std::string arrays =
        std::string(static_cast<std::size_t>(depth), '[') + "1" +
        std::string(static_cast<std::size_t>(depth), ']');
    std::string objects;
    for (int d = 0; d < depth; ++d) objects += "{\"k\":";
    objects += "null" + std::string(static_cast<std::size_t>(depth), '}');
    const std::string unclosed = arrays.substr(0, arrays.size() - 1);
    for (const std::string& input : {arrays, objects, unclosed}) {
      EXPECT_EQ(json_parse_mismatch(input), "") << input;
    }
  }
}

TEST(JsonDifferential, RandomBytes) {
  Rng rng(73);
  for (int trial = 0; trial < 20'000; ++trial) {
    std::string input(static_cast<std::size_t>(rng.uniform_int(0, 24)), ' ');
    for (char& c : input) c = static_cast<char>(rng.uniform_int(0, 255));
    ASSERT_EQ(json_parse_mismatch(input), "") << trial;
  }
}

// ------------------------------------------------------------ numbers --

/// json_number as the server rendered it with printf and strtod.
std::string reference_number(double value) {
  if (!(value == value) || value > DBL_MAX || value < -DBL_MAX) return "null";
  char full[32];
  std::snprintf(full, sizeof full, "%.17g", value);
  char shorter[32];
  std::snprintf(shorter, sizeof shorter, "%g", value);
  if (std::strtod(shorter, nullptr) == value) return shorter;
  return full;
}

TEST(JsonNumber, MatchesPrintfReference) {
  std::vector<double> values = {
      0.0, -0.0, 0.1, -0.1, 1.0, 1.5, 100.0, 1e6, 123456.0, 1234567.0,
      0.0001, 0.00001, 1e-5, 1e21, 1e22, 9007199254740991.0, 9007199254740992.0,
      9007199254740993.0, 1e308, -1e308, DBL_MAX, -DBL_MAX, DBL_MIN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      DBL_MIN - std::numeric_limits<double>::denorm_min(), 2.2250738585072011e-308,
      std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(), 0.8284271247461903, 0.6931471805599453};
  // Values whose 6-digit rendering just fails to read back: one ulp off a
  // 6-digit decimal.
  for (const double v : {1.23456, 0.5, 999999.0, 1e-7, 0.694444, 3.14159}) {
    values.push_back(std::nextafter(v, 2 * v));
    values.push_back(std::nextafter(v, 0.0));
  }
  Rng rng(74);
  for (int i = 0; i < 40'000; ++i) {  // any bit pattern, NaNs and infinities too
    const auto bits = static_cast<std::uint64_t>(rng.uniform_int(
                          0, std::numeric_limits<std::int64_t>::max())) ^
                      (rng.uniform() < 0.5 ? 0x8000000000000000ULL : 0U);
    values.push_back(std::bit_cast<double>(bits));
  }
  for (int i = 0; i < 40'000; ++i) {  // utilization- and bound-like values
    values.push_back(rng.uniform(0.0, 1.0));
    values.push_back(std::round(rng.uniform(0.0, 1.0) * 1e6) / 1e6);
  }
  for (int i = 0; i < 10'000; ++i) {  // denormals and integers
    values.push_back(std::bit_cast<double>(
        static_cast<std::uint64_t>(rng.uniform_int(1, (std::int64_t{1} << 52) - 1))));
    values.push_back(static_cast<double>(
        rng.uniform_int(std::numeric_limits<std::int64_t>::min() / 2,
                        std::numeric_limits<std::int64_t>::max() / 2)));
  }
  ASSERT_GE(values.size(), 100'000U);
  for (const double v : values) {
    ASSERT_EQ(server::json_number(v), reference_number(v))
        << std::hexfloat << v;
  }
}

}  // namespace
}  // namespace rmts
