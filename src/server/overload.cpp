#include "server/overload.hpp"

#include <algorithm>
#include <cmath>

#include "server/protocol.hpp"

namespace rmts::server {

namespace {

/// Skips JSON whitespace from `pos`; returns the first non-ws index (or
/// text.size()).
std::size_t skip_ws(std::string_view text, std::size_t pos) noexcept {
  while (pos < text.size() &&
         (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r' ||
          text[pos] == '\n')) {
    ++pos;
  }
  return pos;
}

/// After a key, expects `:` then the start of the value; npos on mismatch.
std::size_t skip_colon(std::string_view text, std::size_t pos) noexcept {
  pos = skip_ws(text, pos);
  if (pos >= text.size() || text[pos] != ':') return std::string_view::npos;
  return skip_ws(text, pos + 1);
}

/// Scans a JSON string whose opening quote sits at `pos`; sets `body` to
/// the raw (still-escaped) contents and returns the index just past the
/// closing quote, or npos when the string never terminates.
std::size_t scan_string(std::string_view text, std::size_t pos,
                        std::string_view& body) noexcept {
  const std::size_t begin = pos + 1;
  std::size_t i = begin;
  while (i < text.size()) {
    if (text[i] == '\\') {
      i += 2;
      continue;
    }
    if (text[i] == '"') {
      body = text.substr(begin, i - begin);
      return i + 1;
    }
    ++i;
  }
  return std::string_view::npos;
}

}  // namespace

OverloadController::OverloadController(OverloadConfig config)
    : config_(config) {
  if (config_.interval_ms < 1) config_.interval_ms = 1;
  if (config_.min_budget < 1) config_.min_budget = 1;
  if (config_.max_budget < config_.min_budget) {
    config_.max_budget = config_.min_budget;
  }
  if (!(config_.decrease > 0.0 && config_.decrease < 1.0)) {
    config_.decrease = 0.7;
  }
  if (config_.increase == 0) config_.increase = 1;
  if (config_.max_retry_after_ms < config_.interval_ms) {
    config_.max_retry_after_ms = config_.interval_ms;
  }
  config_.initial_budget = std::clamp(config_.initial_budget,
                                      config_.min_budget, config_.max_budget);
  budgets_.fill(config_.initial_budget);
  retry_after_ms_.fill(config_.interval_ms);
}

const std::array<std::size_t, kBudgetClassCount>& OverloadController::tick(
    const std::array<ClassSample, kBudgetClassCount>& samples) {
  ++ticks_;
  for (std::size_t c = 0; c < kBudgetClassCount; ++c) {
    const ClassSample& sample = samples[c];
    const std::uint64_t slo = config_.slo_p99_us[c];

    // Retry hint first (valid in static mode too): Little's-law drain
    // time of the current backlog at the interval's service rate.
    if (sample.completed > 0) {
      const double intervals =
          static_cast<double>(sample.in_flight + 1) /
          static_cast<double>(sample.completed);
      const double hint =
          std::ceil(intervals) * static_cast<double>(config_.interval_ms);
      retry_after_ms_[c] = static_cast<int>(
          std::clamp(hint, static_cast<double>(config_.interval_ms),
                     static_cast<double>(config_.max_retry_after_ms)));
    } else if (sample.in_flight > 0 || sample.shed > 0) {
      // Saturated and nothing finished: tell clients to stay away for the
      // full ceiling.
      retry_after_ms_[c] = config_.max_retry_after_ms;
    } else {
      retry_after_ms_[c] = config_.interval_ms;
    }

    if (!config_.adaptive) continue;

    const bool violated =
        (sample.completed > 0 && sample.p99_us > static_cast<double>(slo)) ||
        // Stuck: admitted work spans whole intervals without finishing.
        (sample.completed == 0 && sample.in_flight > 0);
    if (violated) {
      const auto shrunk = static_cast<std::size_t>(
          std::floor(static_cast<double>(budgets_[c]) * config_.decrease));
      budgets_[c] = std::max(config_.min_budget, shrunk);
    } else if (sample.completed > 0 &&
               (sample.shed > 0 ||
                sample.in_flight + sample.completed >= budgets_[c])) {
      // Compliant AND the budget was actually the binding constraint --
      // probing upward on an idle class would just store up a burst.
      budgets_[c] =
          std::min(config_.max_budget, budgets_[c] + config_.increase);
    }
  }
  return budgets_;
}

RequestPeek peek_request(std::string_view line) noexcept {
  RequestPeek peek;
  // One pass over the top level of the JSON object, tracking nesting
  // depth and tokenizing strings (with escape handling) so "op" or
  // "deadline_ms" occurring inside a string VALUE or a nested container
  // can never match: only a depth-1 string followed by ':' is a key.
  // That anchoring matters for deadline_ms -- a spurious match would make
  // a worker drop a valid request as deadline_expired, a semantic change
  // the strict worker-side parse never gets to correct.
  std::size_t pos = skip_ws(line, 0);
  if (pos >= line.size() || line[pos] != '{') return peek;
  ++pos;
  int depth = 1;
  while (pos < line.size() && depth > 0) {
    const char c = line[pos];
    if (c == '{' || c == '[') {
      ++depth;
      ++pos;
      continue;
    }
    if (c == '}' || c == ']') {
      --depth;
      ++pos;
      continue;
    }
    if (c != '"') {
      ++pos;
      continue;
    }
    std::string_view body;
    pos = scan_string(line, pos, body);
    if (pos == std::string_view::npos) return peek;  // unterminated string
    if (depth != 1) continue;  // nested strings are never top-level keys
    const std::size_t value = skip_colon(line, pos);
    if (value == std::string_view::npos) continue;  // a value, not a key
    pos = value;
    if (body == "op") {
      if (pos < line.size() && line[pos] == '"') {
        std::string_view op;
        const std::size_t end = scan_string(line, pos, op);
        if (end == std::string_view::npos) return peek;
        pos = end;
        if (const Op* known = find_op(op)) {
          peek.endpoint = known->endpoint;
          if (known->budget) {
            peek.cls = *known->budget;
            peek.budgeted = true;
          }
        }
      }
    } else if (body == "deadline_ms") {
      std::int64_t value_ms = 0;
      bool any = false;
      while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9' &&
             value_ms < (std::int64_t{1} << 40)) {
        value_ms = value_ms * 10 + (line[pos] - '0');
        any = true;
        ++pos;
      }
      // Saturate absurd values (a ~35-year deadline is "no deadline").
      if (any) peek.deadline_ms = std::min(value_ms, std::int64_t{1} << 40);
    }
    // Any other key: pos sits at its value, which the depth/string
    // tracking above walks over like any other token.
  }
  return peek;
}

std::string overloaded_reply(int retry_after_ms) {
  return error_reply("overloaded", "retry_after_ms", retry_after_ms);
}

std::string deadline_expired_reply(std::int64_t waited_ms) {
  return error_reply("deadline_expired", "waited_ms", waited_ms);
}

}  // namespace rmts::server
