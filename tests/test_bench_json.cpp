// Tests for bench/bench_util.h JSON emission: the BENCH_*.json artifacts
// must stay parseable even when a record carries non-finite numbers
// (a 0/0 speedup or a failed timer read) or a name containing JSON
// metacharacters.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "bench/bench_util.h"

namespace divsec::bench {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(BenchJson, EscapesNamesAndNullsNonFiniteValues) {
  const std::string path = ::testing::TempDir() + "divsec_bench_json_test.json";
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  write_bench_json(path, {
                             {"plain", 12.5, 4, 2.0},
                             {"quote\"back\\slash\nnewline", nan, 1, inf},
                         });
  const std::string json = read_file(path);
  std::remove(path.c_str());

  // Strings are escaped...
  EXPECT_NE(json.find("\"quote\\\"back\\\\slash\\nnewline\""), std::string::npos);
  // ...non-finite numbers become null...
  EXPECT_NE(json.find("\"wall_ms\": null"), std::string::npos);
  EXPECT_NE(json.find("\"speedup\": null"), std::string::npos);
  // ...and the tokens no parser accepts never appear.
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  // Finite values serialize normally.
  EXPECT_NE(json.find("\"wall_ms\": 12.500"), std::string::npos);
  EXPECT_NE(json.find("\"speedup\": 2.000"), std::string::npos);
}

TEST(BenchJson, HelpersRoundTrip) {
  EXPECT_EQ(json_escape("a\tb\x01"), "a\\tb\\u0001");
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_number(1.23456, 2), "1.23");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(BenchJson, MinimalStructuralValidity) {
  // A tiny structural check: balanced brackets/braces and an exact
  // object count — enough to catch a stray comma or truncated record.
  const std::string path = ::testing::TempDir() + "divsec_bench_json_shape.json";
  write_bench_json(path, {{"a", 1.0, 1, 1.0}, {"b", 2.0, 2, 2.0}});
  const std::string json = read_file(path);
  std::remove(path.c_str());
  std::size_t braces = 0;
  for (char c : json) braces += c == '{' ? 1 : 0;
  EXPECT_EQ(braces, 2u);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("},\n"), std::string::npos);
  EXPECT_EQ(json.find("},\n]"), std::string::npos);  // no trailing comma
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(json[json.size() - 2], ']');
}

}  // namespace
}  // namespace divsec::bench
