#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace adr::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  os << buf;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::num(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr ? v->number_or(fallback) : fallback;
}

std::vector<double> JsonValue::nums(std::string_view key) const {
  std::vector<double> out;
  const JsonValue* v = find(key);
  if (v == nullptr || v->type != Type::kArray) return out;
  out.reserve(v->array.size());
  for (const JsonValue& e : v->array) out.push_back(e.number_or(0.0));
  return out;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Appends a Basic Multilingual Plane code point as UTF-8.
void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

/// Recursive descent over RFC 8259; `depth_` bounds the recursion.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw JsonParseError(std::string("json: ") + what + " at offset " +
                         std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  /// The next byte, or '\0' at the end (never valid where it is checked).
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  void literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) fail("bad literal");
    pos_ += word.size();
  }

  JsonValue value() {
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{':
        return nested(&JsonParser::object);
      case '[':
        return nested(&JsonParser::array);
      case '"':
        v.type = JsonValue::Type::kString;
        v.string = string();
        return v;
      case 't':
        literal("true");
        v.type = JsonValue::Type::kBool;
        v.boolean = true;
        return v;
      case 'f':
        literal("false");
        v.type = JsonValue::Type::kBool;
        return v;
      case 'n':
        literal("null");
        return v;
      default:
        v.type = JsonValue::Type::kNumber;
        v.number = number();
        return v;
    }
  }

  JsonValue nested(JsonValue (JsonParser::*parse_container)()) {
    if (++depth_ > kMaxJsonDepth) fail("nesting too deep");
    JsonValue v = (this->*parse_container)();
    --depth_;
    return v;
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() != ',') break;
      ++pos_;
    }
    expect('}');
    return v;
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (peek() != ',') break;
      ++pos_;
    }
    expect(']');
    return v;
  }

  std::string string() {
    // The letters that may follow a backslash, and the bytes they stand for.
    static constexpr std::string_view kEscaped = "\"\\/bfnrt";
    static constexpr std::string_view kUnescaped = "\"\\/\b\f\n\r\t";
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("unterminated string");
      const char c = s_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
      } else if (peek() == 'u') {
        ++pos_;
        out_code_point(out);
      } else {
        const std::size_t k = kEscaped.find(peek());
        if (k == std::string_view::npos) fail("bad escape");
        out.push_back(kUnescaped[k]);
        ++pos_;
      }
    }
  }

  /// The four hex digits of a backslash-u escape: one UTF-16 unit.
  /// Surrogates, paired or lone, become U+FFFD; the writer never emits
  /// them.
  void out_code_point(std::string& out) {
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const int h = hex_value(peek());
      if (h < 0) fail("bad \\u escape");
      cp = cp << 4 | static_cast<std::uint32_t>(h);
      ++pos_;
    }
    append_utf8(out, cp >= 0xD800 && cp < 0xE000 ? 0xFFFD : cp);
  }

  double number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (is_digit(peek())) {
      while (is_digit(peek())) ++pos_;
    } else {
      fail("bad value");
    }
    if (peek() == '.') {
      ++pos_;
      if (!is_digit(peek())) fail("bad number");
      while (is_digit(peek())) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!is_digit(peek())) fail("bad number");
      while (is_digit(peek())) ++pos_;
    }
    // The grammar is checked; strtod only converts (the view need not be
    // NUL-terminated, so it reads a copy).
    return std::strtod(std::string(s_.substr(start, pos_ - start)).c_str(), nullptr);
  }

  std::string_view s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) { return JsonParser(text).parse(); }

}  // namespace adr::obs
