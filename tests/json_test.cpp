// util/json: the deterministic JSON writer the sweep subsystem rides on.
// The properties under test are exactly the ones the byte-identical merge
// depends on: insertion-ordered objects, one spelling per value, int/double
// storage kept distinct in print. Each test compares the writer's bytes;
// nothing reads them back.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
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
  // int 1 and double 1.0 must neither share a storage class nor print
  // alike — otherwise a seed that happens to equal a double would change
  // spelling between runs.
  EXPECT_NE(JsonValue(1).type(), JsonValue(1.0).type());
  EXPECT_EQ(JsonValue(1).dump(), "1");
  EXPECT_NE(JsonValue(1.0).dump(), "1");
}

TEST(JsonValueTest, Int64RoundTripsExactly) {
  EXPECT_EQ(JsonValue(std::numeric_limits<std::int64_t>::max()).dump(),
            "9223372036854775807");

  // A u64 seed stored through the int64 channel survives the cast pair and
  // prints as its two's-complement int64.
  std::uint64_t seed = 0xdeadbeefcafef00dULL;
  JsonValue s(seed);
  EXPECT_EQ(s.asUint(), seed);
  EXPECT_EQ(s.dump(), "-2401053089206439923");
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
  EXPECT_EQ(JsonValue(18446744073709551615.0).asInt(), kMax);  // 2^64
}

TEST(JsonValueTest, DoubleRoundTripsExactly) {
  // The shortest spelling still reads back as the same double.
  for (double d : {0.1, 1.0 / 3.0, 6878875e-7, 15.063968341614, 1e300}) {
    const std::string dumped = JsonValue(d).dump();
    EXPECT_EQ(std::strtod(dumped.c_str(), nullptr), d) << dumped;
  }
}

TEST(JsonValueTest, StringEscapes) {
  JsonValue v(std::string("a\"b\\c\n\t\x01"));
  EXPECT_EQ(v.dump(), R"("a\"b\\c\n\t\u0001")");
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
  // Integral-valued doubles must keep a ".0" (or exponent) so they read as
  // doubles, not ints — spelling is part of the determinism contract.
  EXPECT_EQ(jsonFormatDouble(15.0), "15.0");
}

}  // namespace
}  // namespace microedge
