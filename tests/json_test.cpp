// JSON reader tests: what RFC 8259 accepts parses into the value tree,
// what it rejects throws JsonParseError with the byte offset, and hostile
// nesting is refused instead of exhausting the stack.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace adr::obs {
namespace {

TEST(ObsJson, ParsesValueTree) {
  const JsonValue doc = parse_json(
      " {\"n\": -12.5e1, \"a\": [1, true, null], \"s\": \"q\\\"\\u00e9\\n\", \"o\": {}}\r\n");
  ASSERT_EQ(doc.type, JsonValue::Type::kObject);
  EXPECT_EQ(doc.num("n"), -125.0);
  EXPECT_EQ(doc.nums("a"), (std::vector<double>{1.0, 0.0, 0.0}));
  EXPECT_EQ(doc.find("a")->array[1].type, JsonValue::Type::kBool);
  EXPECT_EQ(doc.find("a")->array[2].type, JsonValue::Type::kNull);
  EXPECT_EQ(doc.find("s")->string, "q\"\xc3\xa9\n");
  EXPECT_EQ(doc.find("o")->type, JsonValue::Type::kObject);
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(doc.num("missing", 7.0), 7.0);
  // Magnitudes beyond a double are valid JSON: they round, never throw.
  EXPECT_EQ(parse_json("1e-400").number, 0.0);
  EXPECT_EQ(parse_json("-1e400").number, -HUGE_VAL);
}

TEST(ObsJson, RoundTripsTheWriter) {
  const std::string raw = "tab\there \"quoted\" back\\slash \x01 end";
  EXPECT_EQ(parse_json("\"" + json_escape(raw) + "\"").string, raw);
}

TEST(ObsJson, RejectsWhatRfc8259Rejects) {
  const char* const kRejected[] = {
      "NaN",          "-NaN",      "inf",         "-inf",        "Infinity",
      "0x10",         "+1",        "01",          "-01",         "1.",
      ".5",           "1e",        "1e+",         "-",           "\"\\uZZZZ\"",
      "\"\\u12\"",    "\"\t\"",    "\"\n\"",      "\"\\x41\"",   "\"open",
      "[1,]",         "{\"a\":1,}", "[1 2]",      "{\"a\" 1}",   "{1:2}",
      "[1] x",        "{} {}",     "1 1",         "nul",         "tru",
      "\f1",          "\v1",       "",            "   ",         "[",
  };
  for (const char* text : kRejected) {
    EXPECT_THROW(parse_json(text), JsonParseError) << "accepted: " << text;
  }
}

TEST(ObsJson, ErrorNamesByteOffset) {
  try {
    parse_json("[1, 2, 03]");
    FAIL() << "accepted a leading zero";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("offset 8"), std::string::npos) << e.what();
  }
}

TEST(ObsJson, DeepNestingThrows) {
  EXPECT_THROW(parse_json(std::string(1'000'000, '[')), JsonParseError);
  const std::string at_limit =
      std::string(kMaxJsonDepth, '[') + std::string(kMaxJsonDepth, ']');
  EXPECT_NO_THROW(parse_json(at_limit));
  EXPECT_THROW(parse_json("[" + at_limit + "]"), JsonParseError);
}

}  // namespace
}  // namespace adr::obs
