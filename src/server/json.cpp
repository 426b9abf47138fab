#include "server/json.hpp"

#include <charconv>
#include <cstdlib>
#include <iterator>
#include <system_error>

#include "common/json.hpp"

namespace rmts::server {

/// Storage of one parse, owned by its root.  `chars` is reserved to the
/// input's length before parsing -- decoded strings are never longer than
/// their source -- so string views into it stay put while it fills.
struct JsonValue::Document {
  std::vector<JsonValue> nodes;
  std::string chars;
};

JsonValue::JsonValue() noexcept = default;
JsonValue::JsonValue(JsonValue&&) noexcept = default;
JsonValue& JsonValue::operator=(JsonValue&&) noexcept = default;
JsonValue::~JsonValue() = default;

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  for (const JsonValue& member : members()) {
    if (member.key() == key) return &member;
  }
  return nullptr;
}

/// Recursive-descent parser over a string_view.  Depth is capped so a
/// hostile "[[[[..." line cannot blow the stack; every error names the
/// byte offset for the protocol's error replies.
///
/// Each parsed value is pushed onto `stack`.  When a container closes,
/// its children -- the top of the stack -- move to the end of the
/// document's `nodes` as one contiguous block and the container itself
/// is pushed in their place, remembering where the block starts.  After
/// the root closes, json_parse turns those block indices into pointers.
class JsonParser {
 public:
  JsonParser(std::string_view text, std::string& error,
             std::vector<JsonValue>& stack, std::vector<JsonValue>& nodes,
             std::string& chars)
      : text_(text), error_(error), stack_(stack), nodes_(nodes), chars_(chars) {}

  bool parse() {
    skip_whitespace();
    if (!parse_value(0)) return false;
    skip_whitespace();
    if (pos_ != text_.size()) return fail("trailing garbage");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* what) {
    error_ = std::string(what) + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  [[nodiscard]] bool at_digit() const {
    return !at_end() && peek() >= '0' && peek() <= '9';
  }

  JsonValue& push(JsonValue::Kind kind) {
    JsonValue& value = stack_.emplace_back();
    value.kind_ = kind;
    return value;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  bool parse_value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': {
        std::string_view string;
        if (!parse_string(string)) return false;
        push(JsonValue::Kind::kString).string_ = string;
        return true;
      }
      case 't':
        push(JsonValue::Kind::kBool).bool_ = true;
        return consume_literal("true");
      case 'f':
        push(JsonValue::Kind::kBool);
        return consume_literal("false");
      case 'n':
        push(JsonValue::Kind::kNull);
        return consume_literal("null");
      default: return parse_number();
    }
  }

  /// Moves the children above `base` on the stack into one block of
  /// `nodes_` and pushes their container.
  void close_container(JsonValue::Kind kind, std::size_t base) {
    const auto begin = stack_.begin() + static_cast<std::ptrdiff_t>(base);
    const std::size_t first = nodes_.size();
    nodes_.insert(nodes_.end(), std::make_move_iterator(begin),
                  std::make_move_iterator(stack_.end()));
    stack_.erase(begin, stack_.end());
    JsonValue& container = push(kind);
    container.first_ = first;
    container.size_ = nodes_.size() - first;
  }

  bool parse_object(int depth) {
    const std::size_t base = stack_.size();
    ++pos_;  // '{'
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      ++pos_;
      close_container(JsonValue::Kind::kObject, base);
      return true;
    }
    while (true) {
      skip_whitespace();
      if (at_end() || peek() != '"') return fail("expected member key");
      std::string_view key;
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (at_end() || peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_whitespace();
      if (!parse_value(depth + 1)) return false;
      stack_.back().key_ = key;
      skip_whitespace();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        close_container(JsonValue::Kind::kObject, base);
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(int depth) {
    const std::size_t base = stack_.size();
    ++pos_;  // '['
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      ++pos_;
      close_container(JsonValue::Kind::kArray, base);
      return true;
    }
    while (true) {
      skip_whitespace();
      if (!parse_value(depth + 1)) return false;
      skip_whitespace();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        close_container(JsonValue::Kind::kArray, base);
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  /// Decodes the string at pos_ onto the end of the arena; `out` views
  /// the decoded bytes there.
  bool parse_string(std::string_view& out) {
    ++pos_;  // opening quote
    const std::size_t start = chars_.size();
    while (true) {
      if (at_end()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') {
        out = std::string_view(chars_).substr(start);
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return fail("raw control character in string");
      }
      if (c != '\\') {
        chars_.push_back(c);
        continue;
      }
      if (at_end()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': chars_.push_back('"'); break;
        case '\\': chars_.push_back('\\'); break;
        case '/': chars_.push_back('/'); break;
        case 'b': chars_.push_back('\b'); break;
        case 'f': chars_.push_back('\f'); break;
        case 'n': chars_.push_back('\n'); break;
        case 'r': chars_.push_back('\r'); break;
        case 't': chars_.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(code)) return false;
          // Surrogate pair: a high surrogate must be followed by \u + low.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return fail("unpaired surrogate");
            }
            pos_ += 2;
            unsigned low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) return fail("invalid surrogate pair");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail("unpaired surrogate");
          }
          append_utf8(code);
          break;
        }
        default: --pos_; return fail("invalid escape");
      }
    }
  }

  bool parse_hex4(unsigned& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        --pos_;
        return fail("invalid hex digit");
      }
    }
    return true;
  }

  void append_utf8(unsigned code) {
    if (code < 0x80) {
      chars_.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      chars_.push_back(static_cast<char>(0xC0 | (code >> 6)));
      chars_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      chars_.push_back(static_cast<char>(0xE0 | (code >> 12)));
      chars_.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      chars_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      chars_.push_back(static_cast<char>(0xF0 | (code >> 18)));
      chars_.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      chars_.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      chars_.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    // Integer part: 0 | [1-9][0-9]*
    if (!at_digit()) return fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (at_digit()) ++pos_;
    }
    bool integral = true;
    if (!at_end() && peek() == '.') {
      integral = false;
      ++pos_;
      if (!at_digit()) return fail("invalid fraction");
      while (at_digit()) ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (!at_digit()) return fail("invalid exponent");
      while (at_digit()) ++pos_;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    JsonValue& value = push(JsonValue::Kind::kNumber);
    if (integral) {
      std::int64_t parsed = 0;
      if (std::from_chars(first, last, parsed).ec == std::errc{}) {
        // An int64 converts to the nearest double exactly as decimal
        // parsing of its digits rounds; only "-0" needs its sign kept.
        value.has_int_ = true;
        value.int_ = parsed;
        value.number_ = parsed == 0 && *first == '-' ? -0.0
                                                     : static_cast<double>(parsed);
        return true;
      }
    }
    if (std::from_chars(first, last, value.number_).ec ==
        std::errc::result_out_of_range) {
      // from_chars leaves the value unset on overflow and underflow;
      // strtod's answer there is +-HUGE_VAL or a signed zero.
      value.number_ = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    return true;
  }

  std::string_view text_;
  std::string& error_;
  std::vector<JsonValue>& stack_;
  std::vector<JsonValue>& nodes_;
  std::string& chars_;
  std::size_t pos_{0};
};

bool json_parse(std::string_view text, JsonValue& out, std::string& error) {
  // Values of still-open containers, reused by every parse on this
  // thread; one deeply nested or very wide line must not pin its memory,
  // so a large stack is dropped afterwards.
  static constexpr std::size_t kKeptStack = 4096;
  thread_local std::vector<JsonValue> stack;
  stack.clear();

  out = JsonValue();
  auto document = std::make_unique<JsonValue::Document>();
  document->chars.reserve(text.size());
  // A protocol line spends 4-6 bytes per value; growing past this is
  // safe, as nodes refer to their children by index until linked below.
  document->nodes.reserve(text.size() / 4);
  const bool ok =
      JsonParser(text, error, stack, document->nodes, document->chars).parse();
  if (ok) {
    out = std::move(stack.back());
    const auto link = [&](JsonValue& value) {
      if (value.is_array() || value.is_object()) {
        value.children_ = document->nodes.data() + value.first_;
      }
    };
    for (JsonValue& node : document->nodes) link(node);
    link(out);
    out.document_ = std::move(document);
  }
  if (stack.capacity() > kKeptStack) stack = std::vector<JsonValue>();
  return ok;
}

namespace {

/// printf("%.<precision>g", value) into `buf`; returns the end.
char* format_general(char (&buf)[32], double value, int precision) {
  return std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general,
                       precision)
      .ptr;
}

/// json_number appended to `out` without a temporary string.
void append_number(std::string& out, double value) {
  if (!(value == value) || value > 1.7976931348623157e308 ||
      value < -1.7976931348623157e308) {
    out += "null";
    return;
  }
  // "%g" when it reads back exactly; "%.17g" always does.
  char buf[32];
  char* end = format_general(buf, value, 6);
  double parsed = 0.0;
  if (std::from_chars(buf, end, parsed).ec != std::errc{} || parsed != value) {
    end = format_general(buf, value, 17);
  }
  out.append(buf, end);
}

template <typename Integer>
void append_integer(std::string& out, Integer value) {
  char buf[24];
  const std::to_chars_result end = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, end.ptr);
}

}  // namespace

std::string json_number(double value) {
  std::string out;
  append_number(out, value);
  return out;
}

void JsonWriter::separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!wrote_value_.empty()) {
    if (wrote_value_.back()) out_.push_back(',');
    wrote_value_.back() = true;
  }
}

void JsonWriter::open(char bracket) {
  separate();
  out_.push_back(bracket);
  wrote_value_.push_back(false);
}

void JsonWriter::close(char bracket) {
  wrote_value_.pop_back();
  out_.push_back(bracket);
}

void JsonWriter::key(std::string_view name) {
  if (wrote_value_.back()) out_.push_back(',');
  wrote_value_.back() = true;
  out_.push_back('"');
  json_escape_append(out_, name);
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::value(std::string_view text) {
  separate();
  out_.push_back('"');
  json_escape_append(out_, text);
  out_.push_back('"');
}

void JsonWriter::value(bool flag) {
  separate();
  out_ += flag ? "true" : "false";
}

void JsonWriter::value(double number) {
  separate();
  append_number(out_, number);
}

void JsonWriter::value(std::int64_t number) {
  separate();
  append_integer(out_, number);
}

void JsonWriter::value(std::uint64_t number) {
  separate();
  append_integer(out_, number);
}

void JsonWriter::null() {
  separate();
  out_ += "null";
}

void JsonWriter::value(const JsonValue& scalar) {
  switch (scalar.kind()) {
    case JsonValue::Kind::kBool: value(scalar.as_bool()); return;
    case JsonValue::Kind::kNumber:
      if (scalar.is_int()) {
        value(scalar.as_int());
      } else {
        value(scalar.as_double());
      }
      return;
    case JsonValue::Kind::kString: value(scalar.as_string()); return;
    default: null(); return;
  }
}

}  // namespace rmts::server
