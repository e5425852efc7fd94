// JSON for the observability subsystem: the writer and the one reader.
//
// The metrics snapshot, the sampler history and the Chrome trace export
// are JSON on the wire.  The writer half (json_escape, json_number) is
// what they share to emit it.  The reader half parses such documents
// back into a tagged-value tree: adr_stats and adr_top read what a
// server sends them, and the tests check that every emitted document is
// well-formed by parsing it.
//
// The reader accepts exactly RFC 8259 and nothing more: no NaN or
// infinity, no leading '+' or zeros, no hex, no trailing commas,
// whitespace limited to space, tab, CR and LF, no raw control characters
// inside strings.  Nesting deeper than kMaxJsonDepth is refused, so a
// hostile document cannot exhaust the stack.  Every error names the byte
// offset where parsing stopped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace adr::obs {

/// Escapes `s` for use inside a JSON string literal (quotes not added).
std::string json_escape(std::string_view s);

/// Writes a double the way JSON wants it: finite values with enough
/// precision to round-trip, NaN/inf as 0 (JSON has no spelling for them).
void json_number(std::ostream& os, double v);

/// One parsed JSON value.  Objects keep member order; numbers are doubles;
/// strings are UTF-8.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  double number_or(double fallback) const {
    return type == Type::kNumber ? number : fallback;
  }

  /// Numeric member of an object, with fallback.
  double num(std::string_view key, double fallback = 0.0) const;

  /// Numeric array member flattened to doubles (empty when absent).
  std::vector<double> nums(std::string_view key) const;
};

class JsonParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Arrays and objects nested deeper than this are a JsonParseError.
inline constexpr int kMaxJsonDepth = 128;

/// Parses one complete JSON document; throws JsonParseError otherwise.
JsonValue parse_json(std::string_view text);

}  // namespace adr::obs
