// Minimal JSON document model for the admission-control protocol.
//
// The wire format (server/protocol.hpp) is one JSON object per line, so
// the parser only has to handle small, bounded documents; it is strict
// (RFC 8259 grammar, no comments, no trailing commas) and defensive:
// nesting depth is capped, and every failure returns an error message
// naming the offset instead of throwing -- malformed requests are an
// expected input, not a caller contract violation.
//
// A parse produces one flat document: every value is a node in a single
// buffer, the items or members of a container are one contiguous range
// of it, and every decoded string and key sits in one character arena.
// The root JsonValue owns both, so a parse makes a handful of heap
// allocations however many values the line holds.  Numbers are read
// with std::from_chars.  The writer half (JsonWriter) renders replies
// into one buffer, escaping with the shared escaper of common/json.hpp,
// the same one the bench reports use.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rmts::server {

/// One parsed JSON value: the document root (which owns the parse's
/// storage) or a node inside it.  Objects keep their members in document
/// order; find() returns the first member with a given key.  Nodes are
/// views into the root's storage, so a root is move-only and its nodes
/// live as long as it does.
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

  JsonValue() noexcept;
  JsonValue(JsonValue&&) noexcept;
  JsonValue& operator=(JsonValue&&) noexcept;
  JsonValue(const JsonValue&) = delete;
  JsonValue& operator=(const JsonValue&) = delete;
  ~JsonValue();

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
  [[nodiscard]] std::string_view as_string() const noexcept { return string_; }
  [[nodiscard]] std::span<const JsonValue> items() const noexcept {
    return {children_, size_};
  }
  /// An object's members in document order; each one's key() names it.
  [[nodiscard]] std::span<const JsonValue> members() const noexcept {
    return {children_, size_};
  }
  /// This value's key when it is an object member, else empty.
  [[nodiscard]] std::string_view key() const noexcept { return key_; }

  /// First member named `key`, or nullptr.  Valid for objects only.
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

 private:
  friend class JsonParser;
  friend bool json_parse(std::string_view text, JsonValue& out, std::string& error);
  struct Document;

  Kind kind_{Kind::kNull};
  bool bool_{false};
  bool has_int_{false};
  double number_{0.0};
  std::int64_t int_{0};
  std::string_view string_;             ///< in the document's arena
  std::string_view key_;                ///< in the document's arena
  const JsonValue* children_{nullptr};  ///< first item/member, in its nodes
  std::size_t size_{0};                 ///< item/member count
  std::size_t first_{0};  ///< first child's node index, while parsing
  std::unique_ptr<Document> document_;  ///< set on a parse's root only
};

/// Parses `text` as one complete JSON document (trailing whitespace
/// allowed, trailing garbage rejected).  Returns true on success; on
/// failure `error` describes the problem and the byte offset.
bool json_parse(std::string_view text, JsonValue& out, std::string& error);

/// Locale-independent rendering of a double: printf's "%g" (6
/// significant digits) when that reads back as `value`, else "%.17g",
/// which always does.  Non-finite values render as null (JSON has no
/// inf/nan).
[[nodiscard]] std::string json_number(double value);

/// Streaming writer for protocol replies.  Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.member("ok", true);
///   w.begin_array("margins"); ... w.end_array();
///   w.end_object();
///   w.str();  // the document
/// Commas are inserted automatically; keys and strings are escaped by the
/// shared escaper straight into the document.
class JsonWriter {
 public:
  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }
  /// key(name) followed by the container's opening bracket.
  void begin_object(std::string_view name) {
    key(name);
    open('{');
  }
  void begin_array(std::string_view name) {
    key(name);
    open('[');
  }

  /// Starts an object member; must be followed by exactly one value (or
  /// container).
  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(bool flag);
  void value(double number);
  void value(std::int64_t number);
  void value(std::uint64_t number);
  void value(int number) { value(static_cast<std::int64_t>(number)); }
  void null();
  /// Re-emits a parsed scalar (used to echo request ids verbatim);
  /// arrays/objects echo as null.
  void value(const JsonValue& scalar);

  /// key(name) followed by value(v): one scalar object member.
  template <class T>
  void member(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void open(char bracket);
  void close(char bracket);
  void separate();

  std::string out_;
  /// One entry per open container: whether a value has been written at
  /// this level (=> next value needs a leading comma).
  std::vector<bool> wrote_value_;
  bool after_key_{false};
};

}  // namespace rmts::server
