// Differential check of the shipped JSON parser (server/json.hpp) against
// the tree-of-values oracle (oracle/json_tree.hpp).  Header-only, so
// rmts_oracle itself stays free of the server library: include it from
// targets that link both rmts_server and rmts_oracle.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "oracle/json_tree.hpp"
#include "server/json.hpp"

namespace rmts::oracle {

namespace json_differential_detail {

inline std::string describe(const std::string& path, const std::string& what) {
  return (path.empty() ? std::string("root") : path) + ": " + what;
}

/// First difference between two parsed values, or "".
inline std::string diff(const server::JsonValue& got, const JsonValue& want,
                        const std::string& path) {
  if (static_cast<int>(got.kind()) != static_cast<int>(want.kind())) {
    return describe(path, "kind " + std::to_string(static_cast<int>(got.kind())) +
                              " vs " + std::to_string(static_cast<int>(want.kind())));
  }
  switch (want.kind()) {
    case JsonValue::Kind::kNull: return {};
    case JsonValue::Kind::kBool:
      return got.as_bool() == want.as_bool() ? std::string() : describe(path, "bool");
    case JsonValue::Kind::kNumber:
      if (got.is_int() != want.is_int()) return describe(path, "is_int");
      if (want.is_int() && got.as_int() != want.as_int()) {
        return describe(path, "int " + std::to_string(got.as_int()) + " vs " +
                                  std::to_string(want.as_int()));
      }
      if (std::bit_cast<std::uint64_t>(got.as_double()) !=
          std::bit_cast<std::uint64_t>(want.as_double())) {
        return describe(path, "double bits");
      }
      return {};
    case JsonValue::Kind::kString:
      return got.as_string() == want.as_string() ? std::string()
                                                 : describe(path, "string bytes");
    case JsonValue::Kind::kArray: {
      if (got.items().size() != want.items().size()) {
        return describe(path, "item count");
      }
      for (std::size_t i = 0; i < want.items().size(); ++i) {
        std::string d = diff(got.items()[i], want.items()[i],
                             path + "[" + std::to_string(i) + "]");
        if (!d.empty()) return d;
      }
      return {};
    }
    case JsonValue::Kind::kObject: {
      if (got.members().size() != want.members().size()) {
        return describe(path, "member count");
      }
      for (std::size_t i = 0; i < want.members().size(); ++i) {
        const auto& [key, value] = want.members()[i];
        if (got.members()[i].key() != key) {
          return describe(path, "key " + std::to_string(i));
        }
        std::string d = diff(got.members()[i], value, path + "." + key);
        if (!d.empty()) return d;
      }
      // find() must resolve every key, duplicates too, to its first member.
      for (const auto& member : want.members()) {
        const std::string& key = member.first;
        std::size_t first = 0;
        while (want.members()[first].first != key) ++first;
        if (got.find(key) != &got.members()[first]) {
          return describe(path, "find(" + key + ")");
        }
      }
      return {};
    }
  }
  return describe(path, "unknown kind");
}

}  // namespace json_differential_detail

/// Parses `text` with both parsers.  Returns "" when they agree on the
/// verdict and the error text and, on success, on structure, key order,
/// strings, is_int/as_int and every double's bit pattern; otherwise a
/// description of the first difference.
inline std::string json_parse_mismatch(std::string_view text) {
  server::JsonValue got;
  std::string got_error;
  const bool got_ok = server::json_parse(text, got, got_error);
  JsonValue want;
  std::string want_error;
  const bool want_ok = json_parse(text, want, want_error);
  if (got_ok != want_ok) {
    return std::string("verdict ") + (got_ok ? "accept" : "reject: " + got_error) +
           " vs " + (want_ok ? "accept" : "reject: " + want_error);
  }
  if (!want_ok) {
    return got_error == want_error ? std::string()
                                   : "error '" + got_error + "' vs '" + want_error + "'";
  }
  return json_differential_detail::diff(got, want, "");
}

}  // namespace rmts::oracle
