#include "spans.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

const char* span_name(SpanName name) noexcept {
  switch (name) {
    case SpanName::kClientRequest: return "client.request";
    case SpanName::kReplayRequest: return "replay.request";
    case SpanName::kProtocolDecode: return "protocol.decode";
    case SpanName::kJsonParse: return "json.parse";
    case SpanName::kTasksValidate: return "tasks.validate";
    case SpanName::kBoundsGuaranteed: return "bounds.guaranteed";
    case SpanName::kPartitionPartition: return "partition.partition";
    case SpanName::kRouterHandle: return "router.handle";
    case SpanName::kOnlineAdmit: return "online.admit";
    case SpanName::kOnlineDepart: return "online.depart";
  }
  return "?";
}

std::int64_t SpanLog::since_epoch(Clock::time_point t) const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::int32_t SpanLog::add(SpanName name, std::uint64_t request,
                          std::int32_t parent, Clock::time_point start,
                          Clock::time_point end) {
  records_.push_back(
      SpanRecord{request, since_epoch(start), since_epoch(end), parent, name});
  return static_cast<std::int32_t>(records_.size() - 1);
}

std::vector<SpanSummary> summarize(const std::vector<const SpanLog*>& logs) {
  std::vector<double> total_ns(kSpanNameCount, 0.0);
  std::vector<double> self_ns(kSpanNameCount, 0.0);
  std::vector<SpanSummary> out(kSpanNameCount);
  for (const SpanLog* log : logs) {
    const std::vector<SpanRecord>& records = log->records();
    // Children of one parent run one after another, so the time they
    // cover is the sum of their durations.
    std::vector<double> child_ns(records.size(), 0.0);
    for (const SpanRecord& r : records) {
      if (r.parent >= 0) {
        child_ns[static_cast<std::size_t>(r.parent)] +=
            static_cast<double>(r.end_ns - r.start_ns);
      }
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto k = static_cast<std::size_t>(records[i].name);
      const auto dur = static_cast<double>(records[i].end_ns - records[i].start_ns);
      ++out[k].count;
      total_ns[k] += dur;
      self_ns[k] += dur - child_ns[i];
    }
  }
  for (std::size_t k = 0; k < kSpanNameCount; ++k) {
    if (out[k].count == 0) continue;
    const auto n = static_cast<double>(out[k].count);
    out[k].mean_us = total_ns[k] / n / 1000.0;
    out[k].self_us = self_ns[k] / n / 1000.0;
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  std::int64_t offset = 0;
  char buf[256];
  for (const SpanLog* log : logs) {
    const std::vector<SpanRecord>& records = log->records();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const SpanRecord& r = records[i];
      const std::int64_t parent = r.parent < 0 ? -1 : offset + r.parent;
      // Trace-event timestamps are microseconds; keep the nanoseconds.
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%lld,"
                    "\"parent\":%lld,\"request\":%llu}}",
                    first ? "" : ",\n", span_name(r.name), log->thread(),
                    static_cast<double>(r.start_ns) / 1000.0,
                    static_cast<double>(r.end_ns - r.start_ns) / 1000.0,
                    static_cast<long long>(offset + static_cast<std::int64_t>(i)),
                    static_cast<long long>(parent),
                    static_cast<unsigned long long>(r.request));
      out << buf;
      first = false;
    }
    offset += static_cast<std::int64_t>(records.size());
  }
  out << "\n]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
