#include "oracle/json_tree.hpp"

#include <cerrno>
#include <cstdlib>

namespace rmts::oracle {

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

/// Recursive-descent parser over a string_view.  Depth is capped so a
/// hostile "[[[[..." line cannot blow the stack; every error names the
/// byte offset for the protocol's error replies.
class JsonParser {
 public:
  JsonParser(std::string_view text, std::string& error)
      : text_(text), error_(error) {}

  bool parse(JsonValue& out) {
    skip_whitespace();
    if (!parse_value(out, 0)) return false;
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

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (at_end()) return fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.kind_ = JsonValue::Kind::kString;
        return parse_string(out.string_);
      case 't':
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = true;
        return consume_literal("true");
      case 'f':
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = false;
        return consume_literal("false");
      case 'n':
        out.kind_ = JsonValue::Kind::kNull;
        return consume_literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.kind_ = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_whitespace();
    if (!at_end() && peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_whitespace();
      if (at_end() || peek() != '"') return fail("expected member key");
      std::string key;
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (at_end() || peek() != ':') return fail("expected ':'");
      ++pos_;
      skip_whitespace();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members_.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (at_end()) return fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.kind_ = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_whitespace();
    if (!at_end() && peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_whitespace();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.items_.push_back(std::move(value));
      skip_whitespace();
      if (at_end()) return fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    out.clear();
    while (true) {
      if (at_end()) return fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) return fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
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
          append_utf8(out, code);
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

  static void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    // Integer part: 0 | [1-9][0-9]*
    if (at_end() || peek() < '0' || peek() > '9') return fail("invalid number");
    if (peek() == '0') {
      ++pos_;
    } else {
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    bool integral = true;
    if (!at_end() && peek() == '.') {
      integral = false;
      ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') return fail("invalid fraction");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') return fail("invalid exponent");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out.kind_ = JsonValue::Kind::kNumber;
    errno = 0;
    out.number_ = std::strtod(token.c_str(), nullptr);
    if (integral) {
      errno = 0;
      char* end = nullptr;
      const long long parsed = std::strtoll(token.c_str(), &end, 10);
      if (errno != ERANGE && end == token.c_str() + token.size()) {
        out.has_int_ = true;
        out.int_ = parsed;
      }
    }
    return true;
  }

  std::string_view text_;
  std::string& error_;
  std::size_t pos_{0};
};

bool json_parse(std::string_view text, JsonValue& out, std::string& error) {
  out = JsonValue();
  return JsonParser(text, error).parse(out);
}

}  // namespace rmts::oracle
