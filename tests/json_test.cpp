// util/json: the deterministic JSON value the sweep subsystem rides on.
// The properties under test are exactly the ones the byte-identical merge
// depends on: insertion-ordered objects, one spelling per value, int/double
// storage kept distinct through round trips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "util/json.hpp"

namespace microedge {
namespace {

TEST(JsonValueTest, TypesAndAccessors) {
  EXPECT_TRUE(JsonValue().isNull());
  EXPECT_TRUE(JsonValue(true).isBool());
  EXPECT_TRUE(JsonValue(7).isInt());
  EXPECT_TRUE(JsonValue(1.5).isDouble());
  EXPECT_TRUE(JsonValue("s").isString());
  EXPECT_TRUE(JsonValue::array().isArray());
  EXPECT_TRUE(JsonValue::object().isObject());

  EXPECT_EQ(JsonValue(7).asInt(), 7);
  EXPECT_EQ(JsonValue(7).asDouble(), 7.0);  // int widens on request
  EXPECT_EQ(JsonValue(1.5).asDouble(), 1.5);
  EXPECT_EQ(JsonValue("s").asString(), "s");
}

TEST(JsonValueTest, ObjectsKeepInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj.set("zebra", 1);
  obj.set("apple", 2);
  obj.set("mango", 3);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");

  // Replacing a key keeps its original position.
  obj.set("apple", 99);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"apple\":99,\"mango\":3}");
}

TEST(JsonValueTest, SetOnNullMakesObjectPushMakesArray) {
  JsonValue v;
  v.set("k", 1);
  EXPECT_TRUE(v.isObject());

  JsonValue a;
  a.push(1);
  a.push(2);
  EXPECT_TRUE(a.isArray());
  EXPECT_EQ(a.size(), 2u);
}

TEST(JsonValueTest, FindAndGetHelpers) {
  JsonValue obj = JsonValue::object();
  obj.set("i", 42);
  obj.set("d", 2.5);
  obj.set("s", "hello");
  obj.set("b", true);
  EXPECT_EQ(obj.getInt("i", -1), 42);
  EXPECT_EQ(obj.getDouble("d", -1.0), 2.5);
  EXPECT_EQ(obj.getString("s", "x"), "hello");
  EXPECT_TRUE(obj.getBool("b", false));
  EXPECT_EQ(obj.getInt("missing", -1), -1);
  EXPECT_EQ(obj.find("missing"), nullptr);
  ASSERT_NE(obj.find("i"), nullptr);
  EXPECT_EQ(obj.find("i")->asInt(), 42);
}

TEST(JsonValueTest, IntAndDoubleAreDistinctStorage) {
  // int 1 and double 1.0 must neither compare equal nor print alike —
  // otherwise a seed that happens to equal a double would change spelling
  // between runs.
  EXPECT_NE(JsonValue(1), JsonValue(1.0));
  EXPECT_EQ(JsonValue(1).dump(), "1");
  EXPECT_NE(JsonValue(1.0).dump(), "1");
}

TEST(JsonValueTest, Int64RoundTripsExactly) {
  std::int64_t big = std::numeric_limits<std::int64_t>::max();
  JsonValue v(big);
  auto parsed = JsonValue::parse(v.dump());
  ASSERT_TRUE(parsed.isOk());
  EXPECT_TRUE(parsed->isInt());
  EXPECT_EQ(parsed->asInt(), big);

  // A u64 seed stored through the int64 channel survives the cast pair.
  std::uint64_t seed = 0xdeadbeefcafef00dULL;
  JsonValue s(seed);
  auto parsedSeed = JsonValue::parse(s.dump());
  ASSERT_TRUE(parsedSeed.isOk());
  EXPECT_EQ(parsedSeed->asUint(), seed);
}

TEST(JsonValueTest, AsIntSaturatesOutOfRangeDoubles) {
  // A grid point's {"tpus": 1e30} must reach the driver's range check as a
  // huge positive count, not as whatever the undefined cast yields.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ(JsonValue(1e30).asInt(), kMax);
  EXPECT_EQ(JsonValue(-1e30).asInt(), kMin);
  EXPECT_EQ(JsonValue(0x1p63).asInt(), kMax);
  EXPECT_EQ(JsonValue(-0x1p63).asInt(), kMin);  // exactly representable
  EXPECT_EQ(JsonValue(std::nan("")).asInt(), 0);
  EXPECT_EQ(JsonValue(-2.9).asInt(), -2);  // in range: truncates as before

  // An integer literal past INT64_MAX parses as a double.
  auto parsed = JsonValue::parse("18446744073709551615");
  ASSERT_TRUE(parsed.isOk());
  EXPECT_TRUE(parsed->isDouble());
  EXPECT_EQ(parsed->asInt(), kMax);
}

TEST(JsonValueTest, DoubleRoundTripsExactly) {
  for (double d : {0.1, 1.0 / 3.0, 6878875e-7, 15.063968341614, 1e300}) {
    auto parsed = JsonValue::parse(JsonValue(d).dump());
    ASSERT_TRUE(parsed.isOk()) << d;
    EXPECT_TRUE(parsed->isDouble()) << d;
    EXPECT_EQ(parsed->asDouble(), d) << d;
  }
}

TEST(JsonValueTest, StringEscapes) {
  JsonValue v(std::string("a\"b\\c\n\t\x01"));
  std::string dumped = v.dump();
  auto parsed = JsonValue::parse(dumped);
  ASSERT_TRUE(parsed.isOk()) << dumped;
  EXPECT_EQ(parsed->asString(), v.asString());
}

TEST(JsonValueTest, ParseRejectsGarbage) {
  EXPECT_FALSE(JsonValue::parse("").isOk());
  EXPECT_FALSE(JsonValue::parse("{").isOk());
  EXPECT_FALSE(JsonValue::parse("[1,]").isOk());
  EXPECT_FALSE(JsonValue::parse("{\"a\":}").isOk());
  EXPECT_FALSE(JsonValue::parse("nul").isOk());
  EXPECT_FALSE(JsonValue::parse("1 2").isOk());  // trailing tokens
}

TEST(JsonValueTest, ParseNestedDocument) {
  auto parsed = JsonValue::parse(
      "{\"a\": [1, 2.5, \"x\", true, null], \"b\": {\"c\": -3}}");
  ASSERT_TRUE(parsed.isOk());
  const JsonValue& a = *parsed->find("a");
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a.items()[0].asInt(), 1);
  EXPECT_EQ(a.items()[1].asDouble(), 2.5);
  EXPECT_EQ(a.items()[2].asString(), "x");
  EXPECT_TRUE(a.items()[3].asBool());
  EXPECT_TRUE(a.items()[4].isNull());
  EXPECT_EQ(parsed->find("b")->getInt("c", 0), -3);
}

TEST(JsonValueTest, DumpParseDumpIsAFixedPoint) {
  // Canonical serialization: re-parsing the writer's output and dumping
  // again must reproduce the bytes (this is what lets shard merges compare
  // with string equality).
  JsonValue doc = JsonValue::object();
  doc.set("name", "smoke");
  doc.set("seed", std::int64_t{-4284403714027608248});
  JsonValue pts = JsonValue::array();
  JsonValue p = JsonValue::object();
  p.set("util", 0.8509541709999999);
  p.set("fps", 15.0);
  p.set("n", 5);
  pts.push(std::move(p));
  doc.set("points", std::move(pts));

  for (int indent : {-1, 2}) {
    std::string once = doc.dump(indent);
    auto parsed = JsonValue::parse(once);
    ASSERT_TRUE(parsed.isOk());
    EXPECT_EQ(parsed->dump(indent), once);
    EXPECT_EQ(*parsed, doc);
  }
}

TEST(JsonValueTest, PrettyDumpShape) {
  JsonValue doc = JsonValue::object();
  doc.set("a", 1);
  JsonValue arr = JsonValue::array();
  arr.push(2);
  doc.set("b", std::move(arr));
  EXPECT_EQ(doc.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
  EXPECT_EQ(JsonValue::object().dump(2), "{}");
  EXPECT_EQ(JsonValue::array().dump(2), "[]");
}

TEST(JsonValueTest, FormatDoubleIsIntegralSafe) {
  // Integral-valued doubles must keep a ".0" (or exponent) so they re-parse
  // as doubles, not ints — spelling is part of the determinism contract.
  std::string s = jsonFormatDouble(15.0);
  auto parsed = JsonValue::parse(s);
  ASSERT_TRUE(parsed.isOk()) << s;
  EXPECT_TRUE(parsed->isDouble()) << s;
}

}  // namespace
}  // namespace microedge
