// JSON string escaping shared by every JSON emitter in the repo (the
// bench reports and the admission-control server's protocol encoder).
//
// RFC 8259 requires escaping of '"', '\\' and all control characters
// below 0x20; emitting a raw newline or tab inside a string silently
// corrupts the document for strict parsers.  Cell contents in the bench
// tables and error messages echoed by the server can both contain such
// bytes, so everything funnels through this one escaper.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace rmts {

/// Appends `raw` to `out` with '"', '\\' and control characters (< 0x20)
/// escaped, so that surrounding the result with quotes yields a valid
/// JSON string.  Common controls use the short forms (\n, \t, \r, \b,
/// \f); the rest use \u00XX.  Bytes >= 0x80 pass through untouched
/// (UTF-8 is valid JSON).
inline void json_escape_append(std::string& out, std::string_view raw) {
  for (const char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

/// Returns `raw` escaped as by json_escape_append.
inline std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  json_escape_append(out, raw);
  return out;
}

}  // namespace rmts
