// Test-only oracle: the tree-of-values JSON parser the server shipped
// before its flat document (server/json.hpp).  Every value owns its
// string and child vectors; numbers go through strtod/strtoll on a
// token copy.  The JSON differential test and `rmts_fuzz proto` parse
// each input with both and require the same verdict, error text and
// values.  Nothing under src/ may link it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rmts::oracle {

/// One parsed JSON value.  Objects keep their members in document order;
/// find() returns the first member with a given key.
class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kNumber,
    kString,
    kArray,
    kObject,
  };

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  /// True for numbers written without fraction/exponent that fit int64.
  [[nodiscard]] bool is_int() const noexcept { return is_number() && has_int_; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Accessors assume the matching kind (callers check first; the router
  /// validates every field before reading it).
  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_double() const noexcept { return number_; }
  [[nodiscard]] std::int64_t as_int() const noexcept { return int_; }
  [[nodiscard]] const std::string& as_string() const noexcept { return string_; }
  [[nodiscard]] const std::vector<JsonValue>& items() const noexcept {
    return items_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const noexcept {
    return members_;
  }

  /// First member named `key`, or nullptr.  Valid for objects only.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

 private:
  friend class JsonParser;

  Kind kind_{Kind::kNull};
  bool bool_{false};
  bool has_int_{false};
  double number_{0.0};
  std::int64_t int_{0};
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses `text` as one complete JSON document (trailing whitespace
/// allowed, trailing garbage rejected).  Returns true on success; on
/// failure `error` describes the problem and the byte offset.
bool json_parse(std::string_view text, JsonValue& out, std::string& error);

}  // namespace rmts::oracle
