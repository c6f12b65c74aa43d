// Tests for the JSON value model: dump/parse round trips and parser
// strictness.
#include "eona/json.hpp"

#include <gtest/gtest.h>

namespace eona::core {
namespace {

TEST(Json, ScalarDumpAndParse) {
  EXPECT_EQ(JsonValue::number(42).dump(), "42");
  EXPECT_EQ(JsonValue::number(-3.5).dump(), "-3.5");
  EXPECT_EQ(JsonValue::boolean(true).dump(), "true");
  EXPECT_EQ(JsonValue{}.dump(), "null");
  EXPECT_EQ(JsonValue::string("hi").dump(), "\"hi\"");

  EXPECT_DOUBLE_EQ(JsonValue::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(JsonValue::parse("-3.5e2").as_number(), -350.0);
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_TRUE(JsonValue::parse(" null ").is_null());
}

TEST(Json, StringEscapes) {
  JsonValue v = JsonValue::string("a\"b\\c\nd\te");
  std::string dumped = v.dump();
  EXPECT_EQ(JsonValue::parse(dumped).as_string(), "a\"b\\c\nd\te");
  EXPECT_EQ(JsonValue::parse("\"\\u0041\"").as_string(), "A");
}

TEST(Json, NestedStructures) {
  JsonValue obj = JsonValue::object();
  obj.set("name", JsonValue::string("eona"));
  JsonValue arr = JsonValue::array();
  arr.push_back(JsonValue::number(1));
  arr.push_back(JsonValue::number(2));
  obj.set("values", std::move(arr));

  JsonValue parsed = JsonValue::parse(obj.dump(2));
  EXPECT_EQ(parsed.at("name").as_string(), "eona");
  ASSERT_EQ(parsed.at("values").as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.at("values").as_array()[1].as_number(), 2.0);
  EXPECT_TRUE(parsed.has("name"));
  EXPECT_FALSE(parsed.has("nope"));
}

TEST(Json, MalformedInputsThrow) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "1 2",
        "{\"a\":1,}", "[1 2]", "nul", "\"bad\\q\"", "--1", "{a:1}"}) {
    EXPECT_THROW(JsonValue::parse(bad), CodecError) << bad;
  }
}

TEST(Json, KindMismatchesThrow) {
  JsonValue n = JsonValue::number(1);
  EXPECT_THROW(static_cast<void>(n.as_string()), CodecError);
  EXPECT_THROW(static_cast<void>(n.as_array()), CodecError);
  EXPECT_THROW(static_cast<void>(n.at("x")), CodecError);
  JsonValue obj = JsonValue::object();
  EXPECT_THROW(static_cast<void>(obj.at("missing")), CodecError);
}

TEST(Json, NonFiniteNumbersRefuseToSerialise) {
  EXPECT_THROW(JsonValue::number(1.0 / 0.0).dump(), CodecError);
}

}  // namespace
}  // namespace eona::core
