#include "src/util/config.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

namespace faucets {
namespace {

TEST(Trim, Basics) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\r\n"), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Config, ParsesSectionsAndValues) {
  const auto config = ConfigFile::parse_string(R"(
[grid]
users = 8
billing = barter

[cluster]
name = a
procs = 64
)");
  ASSERT_NE(config.section("grid"), nullptr);
  EXPECT_EQ(config.section("grid")->get_int("users", 0), 8);
  EXPECT_EQ(config.section("grid")->get_string("billing", ""), "barter");
  EXPECT_EQ(config.section("cluster")->get_string("name", ""), "a");
  EXPECT_EQ(config.section("missing"), nullptr);
}

TEST(Config, RepeatedSectionsKeepOrder) {
  const auto config = ConfigFile::parse_string(R"(
[cluster]
name = first
[cluster]
name = second
[cluster]
name = third
)");
  const auto clusters = config.sections("cluster");
  ASSERT_EQ(clusters.size(), 3u);
  EXPECT_EQ(clusters[0]->get_string("name", ""), "first");
  EXPECT_EQ(clusters[2]->get_string("name", ""), "third");
}

// A second [faults] used to be ignored silently; section() now refuses a
// name that repeats, and sections() still reads repeated sections in order.
TEST(Config, SectionRefusesARepeatedName) {
  const auto config = ConfigFile::parse_string(
      "[faults]\nloss = 0.1\n[cluster]\nname = a\n[faults]\njitter = 2\n");
  EXPECT_EQ(config.sections("faults").size(), 2u);
  try {
    (void)config.section("faults");
    ADD_FAILURE() << "a repeated [faults] was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[faults]"), std::string::npos) << e.what();
  }
  EXPECT_EQ(config.section("cluster")->get_string("name", ""), "a");
}

TEST(Config, RepeatedKeyThrowsWithLineNumber) {
  try {
    (void)ConfigFile::parse_string("[faults]\nloss = 0.1\njitter = 2\nloss = 0.2\n");
    ADD_FAILURE() << "a repeated key was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("loss"), std::string::npos) << what;
  }
  // The same key in two sections is two keys.
  const auto config = ConfigFile::parse_string("[a]\nx = 1\n[b]\nx = 2\n");
  EXPECT_EQ(config.section("b")->get_int("x", 0), 2);
}

TEST(Config, ParseNumberTakesOnlyAWholeNumber) {
  EXPECT_DOUBLE_EQ(parse_number<double>(" 2.5 ", "--until"), 2.5);
  EXPECT_EQ(parse_number<long>("-1", "--threads"), -1);
  // NaN fails every comparison, so no range check after the parse could
  // refuse it; infinities are numbers.
  EXPECT_EQ(parse_number<double>("inf", "--until"), HUGE_VAL);
  for (const char* bad : {"100x", "abc", "", "1e", "nan", "-nan"}) {
    try {
      (void)parse_number<double>(bad, "--until");
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("--until"), std::string::npos) << e.what();
    }
  }
  EXPECT_THROW((void)parse_number<long>("2x", "--threads"), std::invalid_argument);
  EXPECT_THROW((void)parse_number<long>("1.5", "--threads"), std::invalid_argument);
}

TEST(Config, CommentsAndBlankLines) {
  const auto config = ConfigFile::parse_string(R"(
# full-line comment
[s]
a = 1   # trailing comment
b = 2   ; semicolon comment

c = 3
)");
  const auto* s = config.section("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->get_int("a", 0), 1);
  EXPECT_EQ(s->get_int("b", 0), 2);
  EXPECT_EQ(s->get_int("c", 0), 3);
}

TEST(Config, TypedGettersWithFallbacks) {
  const auto config = ConfigFile::parse_string("[s]\nx = 1.5\nflag = yes\n");
  const auto* s = config.section("s");
  EXPECT_DOUBLE_EQ(s->get_double("x", 0.0), 1.5);
  EXPECT_DOUBLE_EQ(s->get_double("missing", 7.0), 7.0);
  EXPECT_TRUE(s->get_bool("flag", false));
  EXPECT_FALSE(s->get_bool("missing", false));
}

TEST(Config, BoolSpellings) {
  const auto config = ConfigFile::parse_string(
      "[s]\na = true\nb = ON\nc = 0\nd = No\n");
  const auto* s = config.section("s");
  EXPECT_TRUE(s->get_bool("a", false));
  EXPECT_TRUE(s->get_bool("b", false));
  EXPECT_FALSE(s->get_bool("c", true));
  EXPECT_FALSE(s->get_bool("d", true));
}

TEST(Config, MalformedInputsThrow) {
  EXPECT_THROW(ConfigFile::parse_string("[unclosed\nx = 1\n"),
               std::invalid_argument);
  EXPECT_THROW(ConfigFile::parse_string("key_without_section = 1\n"),
               std::invalid_argument);
  EXPECT_THROW(ConfigFile::parse_string("[s]\nno equals sign\n"),
               std::invalid_argument);
}

TEST(Config, BadTypedValuesThrow) {
  const auto config = ConfigFile::parse_string("[s]\nx = abc\nflag = maybe\n");
  const auto* s = config.section("s");
  EXPECT_THROW((void)s->get_double("x", 0.0), std::invalid_argument);
  EXPECT_THROW((void)s->get_int("x", 0), std::invalid_argument);
  EXPECT_THROW((void)s->get_bool("flag", false), std::invalid_argument);
}

}  // namespace
}  // namespace faucets
