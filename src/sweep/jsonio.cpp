#include "src/sweep/jsonio.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace faucets::sweep {

std::string format_double(double value) {
  // JSON has no NaN/Inf; a metric that produced one is a bug upstream.
  if (!std::isfinite(value)) {
    throw std::invalid_argument("format_double: non-finite value");
  }
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  if (ec != std::errc{}) {
    throw std::invalid_argument("format_double: to_chars failed");
  }
  return std::string(buf, ptr);
}

double JsonValue::number() const {
  if (kind_ != Kind::kNumber) throw std::invalid_argument("JSON value is not a number");
  return number_;
}

const std::string& JsonValue::string() const {
  if (kind_ != Kind::kString) throw std::invalid_argument("JSON value is not a string");
  return string_;
}

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind_ != Kind::kObject) throw std::invalid_argument("JSON value is not an object");
  const auto it = members_.find(key);
  return it == members_.end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = get(key);
  if (v == nullptr) throw std::invalid_argument("missing JSON key '" + key + "'");
  return *v;
}

const std::map<std::string, JsonValue>& JsonValue::members() const {
  if (kind_ != Kind::kObject) throw std::invalid_argument("JSON value is not an object");
  return members_;
}

JsonValue JsonValue::make_number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::make_string(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.string_ = std::move(v);
  return out;
}

JsonValue JsonValue::make_object() { return JsonValue{}; }

JsonValue& JsonValue::set(const std::string& key, JsonValue v) {
  members_[key] = std::move(v);
  return *this;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON parse error at byte " + std::to_string(pos_) +
                                ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
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

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '"') return JsonValue::make_string(parse_string());
    if (c == '-' || (std::isdigit(static_cast<unsigned char>(c)) != 0)) {
      return parse_number();
    }
    fail("expected object, string, or number");
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue out = JsonValue::make_object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.set(key, parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return out;
      }
      fail("expected ',' or '}' in object");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
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
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else fail("bad hex digit in \\u escape");
            }
            if (code > 0x7f) fail("non-ASCII \\u escapes are not supported");
            out += static_cast<char>(code);
            break;
          }
          default: fail("unsupported escape");
        }
        continue;
      }
      out += c;
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) fail("malformed number");
    return JsonValue::make_number(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace faucets::sweep
