#include "src/sweep/jsonio.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

namespace faucets::sweep {
namespace {

TEST(FormatDouble, ShortestRoundTrip) {
  EXPECT_EQ(format_double(0.9), "0.9");
  EXPECT_EQ(format_double(0.0), "0");
  EXPECT_EQ(format_double(-1.5), "-1.5");
  EXPECT_EQ(format_double(1e21), "1e+21");
  EXPECT_EQ(format_double(1.0 / 3.0), "0.3333333333333333");
}

TEST(FormatDouble, RoundTripsExactly) {
  for (const double v : {0.1, 1234.5678, 1e-12, 9.007199254740993e15}) {
    EXPECT_EQ(std::stod(format_double(v)), v);
  }
}

TEST(FormatDouble, RejectsNonFinite) {
  EXPECT_THROW((void)format_double(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW((void)format_double(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(JsonValue, ParsesNestedObjects) {
  const auto v = JsonValue::parse(
      R"({"tolerance": 0.05, "points": {"a": {"mean": -1.5}}, "name": "x"})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.at("tolerance").number(), 0.05);
  EXPECT_EQ(v.at("name").string(), "x");
  EXPECT_DOUBLE_EQ(v.at("points").at("a").at("mean").number(), -1.5);
  EXPECT_EQ(v.get("absent"), nullptr);
  EXPECT_THROW((void)v.at("absent"), std::invalid_argument);
  EXPECT_THROW((void)v.at("name").number(), std::invalid_argument);
  EXPECT_THROW((void)v.at("tolerance").string(), std::invalid_argument);
}

TEST(JsonValue, ParsesStringEscapesAndExponentNumbers) {
  const auto v = JsonValue::parse(R"({"s": "a\"\\\nA", "n": 1.5e-3})");
  EXPECT_EQ(v.at("s").string(), "a\"\\\nA");
  EXPECT_DOUBLE_EQ(v.at("n").number(), 0.0015);
}

TEST(JsonValue, StrictParserRejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse(""), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("{"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse("{}x"), std::invalid_argument);  // trailing
  EXPECT_THROW((void)JsonValue::parse(R"({"a" 1})"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": [1]})"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": "\q"})"), std::invalid_argument);
  EXPECT_THROW((void)JsonValue::parse(R"({"a": 1,})"), std::invalid_argument);
}

TEST(JsonValue, ParseErrorsCarryByteOffsets) {
  try {
    (void)JsonValue::parse(R"({"a": nope})");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
  }
}

TEST(JsonValue, BuildAndAccess) {
  auto obj = JsonValue::make_object();
  obj.set("pi", JsonValue::make_number(3.25))
      .set("name", JsonValue::make_string("sweep"));
  EXPECT_DOUBLE_EQ(obj.at("pi").number(), 3.25);
  EXPECT_EQ(obj.at("name").string(), "sweep");
  EXPECT_EQ(obj.members().size(), 2u);
  EXPECT_THROW((void)JsonValue::make_number(1.0).members(), std::invalid_argument);
}

}  // namespace
}  // namespace faucets::sweep
