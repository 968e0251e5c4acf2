#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace fcma::json {

namespace {
const Value g_null;
}

const Value& Value::at(std::string_view key) const {
  for (const auto& [name, value] : object_) {
    if (name == key) return value;
  }
  return g_null;
}

std::uint64_t Value::as_uint(std::uint64_t max, std::string_view what) const {
  // 2^64: the first double that no longer fits a uint64_t (also rejects inf;
  // NaN fails the >= 0 test).
  constexpr double kTwo64 = 18446744073709551616.0;
  const bool ok = kind_ == Kind::Number && num_ >= 0.0 && num_ < kTwo64 &&
                  std::floor(num_) == num_ &&
                  static_cast<std::uint64_t>(num_) <= max;
  if (!ok) {
    throw fcma::Error(std::string(what) + ": expected an integer in [0, " +
                      std::to_string(max) + "]");
  }
  return static_cast<std::uint64_t>(num_);
}

bool Value::has(std::string_view key) const {
  for (const auto& [name, value] : object_) {
    if (name == key) return true;
  }
  return false;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw fcma::Error("JSON parse error at byte " + std::to_string(pos_) +
                      ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Value();
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.kind_ = Value::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.kind_ = Value::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array_.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by fcma's own writers; pass them through raw).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    return Value(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  FCMA_CHECK(f != nullptr, "cannot open JSON file " + path);
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  FCMA_CHECK(!read_error, "I/O error reading JSON file " + path);
  return parse(text);
}

}  // namespace fcma::json
