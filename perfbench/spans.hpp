// Bench-side spans: one record per client request of a traced window and
// per replayed layer call, kept in memory and written to one file when
// the run ends.  Spans of one request share its request id; a span's
// parent is the span that caused it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kClientRequest,  ///< send -> reply on one live connection
  kReplayRequest,  ///< one replayed request; parent of its layer calls
  kProtocolDecode,
  kJsonParse,
  kTasksValidate,
  kBoundsGuaranteed,
  kPartitionPartition,
  kRouterHandle,
  kOnlineAdmit,
  kOnlineDepart,
};
inline constexpr std::size_t kSpanNameCount = 10;

[[nodiscard]] const char* span_name(SpanName name) noexcept;

struct SpanRecord {
  std::uint64_t request{0};
  std::int64_t start_ns{0};  ///< since the run's epoch
  std::int64_t end_ns{0};
  std::int32_t parent{-1};  ///< index within the same log; -1 for a root
  SpanName name{SpanName::kClientRequest};
};

/// One thread's spans (single writer; merged after the thread ends).
class SpanLog {
 public:
  SpanLog(Clock::time_point epoch, std::uint32_t thread)
      : epoch_(epoch), thread_(thread) {}

  /// Records a finished span; returns its index for children to name.
  std::int32_t add(SpanName name, std::uint64_t request, std::int32_t parent,
                   Clock::time_point start, Clock::time_point end);

  [[nodiscard]] const std::vector<SpanRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint32_t thread() const noexcept { return thread_; }

 private:
  [[nodiscard]] std::int64_t since_epoch(Clock::time_point t) const noexcept;

  Clock::time_point epoch_;
  std::uint32_t thread_;
  std::vector<SpanRecord> records_;
};

/// Per span name: how many spans, their mean duration, and their mean
/// self time (duration minus the time their child spans cover).
struct SpanSummary {
  std::uint64_t count{0};
  double mean_us{0.0};
  double self_us{0.0};
};

[[nodiscard]] std::vector<SpanSummary> summarize(
    const std::vector<const SpanLog*>& logs);

/// Writes every span as a Chrome trace-event file (loadable in Perfetto
/// or chrome://tracing); span ids are global, parents refer to them.
/// Returns false if the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
