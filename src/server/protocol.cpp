#include "server/protocol.hpp"

#include <cstdint>
#include <utility>

#include "server/json.hpp"

namespace rmts::server {

void LineDecoder::feed(std::string_view data) {
  for (const char c : data) {
    if (c == '\n') {
      if (discarding_) {
        // Tail of an oversized line: the error was already reported when
        // the cap was hit; just resynchronize.
        discarding_ = false;
      } else {
        if (!partial_.empty() && partial_.back() == '\r') partial_.pop_back();
        ++decoded_;
        ready_.push_back(Line{std::move(partial_), false});
        partial_.clear();
      }
      continue;
    }
    if (discarding_) continue;
    if (partial_.size() >= max_line_) {
      partial_.clear();
      discarding_ = true;
      ++decoded_;
      ready_.push_back(Line{{}, true});
      continue;
    }
    partial_.push_back(c);
  }
}

bool LineDecoder::next(Line& out) {
  if (ready_.empty()) return false;
  out = std::move(ready_.front());
  ready_.pop_front();
  return true;
}

std::string error_reply(std::string_view message, std::string_view detail,
                        std::int64_t value) {
  JsonWriter w;
  w.begin_object();
  w.member("ok", false);
  w.member("error", message);
  if (!detail.empty()) w.member(detail, value);
  w.end_object();
  return w.str();
}

}  // namespace rmts::server
