// Wire protocol of the admission-control service: newline-delimited JSON.
//
// Every request is one JSON object on one line; every reply is one JSON
// object on one line.  Replies always carry "ok" (bool); failures add
// "error" (string).  Successful replies echo the request's "op" and, when
// present, its scalar "id" (so clients can pipeline).
//
// Requests (fields beyond "op", "id" and the optional "deadline_ms"; the
// op table in server/ops.hpp lists every op):
//   admit        m, tasks, [alg], [bound]
//   admit_batch  items[{tasks, [m], [alg], [bound]}], [m], [alg], [bound]
//   analyze      m, tasks, [alg], [bound]
//   robustness   m, tasks, [alg], [bound], [max_factor], [fault_seed],
//                [max_jitter]
//   simulate     m, tasks, [alg], [bound], [horizon_cap], [faults{...}]
//   session_open m, [split], [granularity], [rebalance_every],
//                [max_migrations], [hysteresis], [max_resident]
//   session_admit / session_depart / session_rebalance / session_stats /
//   session_close   session, plus wcet and period (admit) or ticket
//                (depart)
//   stats, metrics  (none)
// where
//   m      processors (int >= 1),
//   tasks  [[wcet, period], ...] in ticks (ints; RM order is derived),
//   alg    "rmts" | "rmts-light" | "spa1" | "spa2" | "prm-ff" | "edf-ts",
//   bound  "ll" | "hc" | "tbound" | "rbound" | "burchard",
//   faults {factor, ticks, prob, jitter, seed, containment
//           ("none"|"budget"|"demote"), fail_proc, fail_at},
//   deadline_ms  the client's patience budget, measured from arrival: a
//           request still queued past it is dropped with
//           {"ok":false,"error":"deadline_expired","waited_ms":...}
//           instead of computed (0 / absent = wait forever).
//
// Overload: when an op class is over its admission budget (DESIGN.md §8)
// the server replies {"ok":false,"error":"overloaded","retry_after_ms":N}
// without queueing the request; N estimates the backlog drain time, and
// Client::request_with_retry honours it.  Pipelined replies leave each
// connection strictly in request order -- sheds and expiries included --
// so clients may match replies to requests positionally.
//
// This header owns the framing layer: LineDecoder turns a TCP byte stream
// into complete lines under a hard length cap, so a peer that never sends
// a newline (or sends a gigabyte-long one) costs bounded memory and gets
// an explicit "line too long" error instead of stalling the server.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

namespace rmts::server {

/// Default per-line cap: generous for real task sets (a 1024-task request
/// is ~20 KB) while bounding per-connection memory.
inline constexpr std::size_t kDefaultMaxLine = 1 << 20;

/// Incremental newline framing with a length cap.
///
/// feed() appends raw bytes; next() yields complete lines in arrival
/// order, with the trailing '\n' (and an optional '\r' before it)
/// stripped.  A line whose length exceeds `max_line` is reported ONCE as
/// an oversized Line the moment the cap is hit -- not when (if ever) its
/// newline arrives -- and the remainder of that line is discarded as it
/// streams in, so buffered() never exceeds max_line.
class LineDecoder {
 public:
  explicit LineDecoder(std::size_t max_line = kDefaultMaxLine)
      : max_line_(max_line) {}

  struct Line {
    std::string text;
    bool oversized{false};
  };

  /// Appends bytes read from the wire.
  void feed(std::string_view data);

  /// Pops the next complete line; false when none is buffered.
  bool next(Line& out);

  /// Bytes held for the current (incomplete) line.
  [[nodiscard]] std::size_t buffered() const noexcept { return partial_.size(); }

  /// Complete lines decoded so far (oversized markers included).
  [[nodiscard]] std::uint64_t lines_decoded() const noexcept { return decoded_; }

 private:
  std::size_t max_line_;
  std::string partial_;
  bool discarding_{false};
  std::deque<Line> ready_;
  std::uint64_t decoded_{0};
};

/// Renders the uniform error reply {"ok":false,"error":...} (no trailing
/// newline; the transport appends it), plus one integer detail member
/// when `detail` is non-empty.
[[nodiscard]] std::string error_reply(std::string_view message,
                                      std::string_view detail = {},
                                      std::int64_t value = 0);

}  // namespace rmts::server
