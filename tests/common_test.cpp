#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace smiless {
namespace {

TEST(Check, PassingCheckIsSilent) {
  EXPECT_NO_THROW(SMILESS_CHECK(1 + 1 == 2));
}

TEST(Check, FailingCheckThrowsWithLocation) {
  try {
    SMILESS_CHECK(false);
    FAIL() << "must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("common_test.cpp"), std::string::npos);
  }
}

TEST(Check, MessageMacroEmbedsStreamedContent) {
  try {
    SMILESS_CHECK_MSG(false, "value was " << 42);
    FAIL() << "must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    const int v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(2);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, PoissonMeanMatches) {
  Rng rng(3);
  long sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.poisson(3.5);
  EXPECT_NEAR(static_cast<double>(sum) / n, 3.5, 0.1);
}

TEST(Rng, ZeroStddevNormalIsDeterministic) {
  Rng rng(4);
  EXPECT_DOUBLE_EQ(rng.normal(7.0, 0.0), 7.0);
}

TEST(Rng, RejectsInvertedBounds) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform(2.0, 1.0), CheckError);
  EXPECT_THROW(rng.uniform_int(5, 4), CheckError);
  EXPECT_THROW(rng.normal(0.0, -1.0), CheckError);
  EXPECT_THROW(rng.bernoulli(1.5), CheckError);
}

TEST(Units, PricingConversionConstant) {
  EXPECT_DOUBLE_EQ(kSecondsPerHour, 3600.0);
}

TEST(TextTable, FormatsAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bb", "22"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRowWidth) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Json, DeepNestingFailsCleanly) {
  // One stack frame per level: without a depth cap this overflows the stack.
  try {
    json::Value::parse(std::string(200000, '['));
    FAIL() << "must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind("json parse error at offset ", 0), 0u) << e.what();
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"), std::string::npos) << e.what();
  }
}

TEST(Json, NestingUpToTheCapParses) {
  const int depth = json::Value::kMaxDepth;
  const std::string doc = std::string(depth, '[') + std::string(depth, ']');
  EXPECT_EQ(json::Value::parse(doc).dump(), doc);
  EXPECT_THROW(json::Value::parse("[" + doc + "]"), std::runtime_error);
}

/// The number rule as a search from one digit up: "%.1f" for integral
/// |v| < 1e15, else the shortest "%.*g" that strtod reads back as v, with
/// ".0" appended when that token has neither '.' nor an exponent. This is
/// the executable spec format_double must match byte for byte.
std::string printf_search(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    return buf;
  }
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  std::string s(buf);
  if (s.find_first_of(".eE") == std::string::npos && s.find_first_of("n") == std::string::npos)
    s += ".0";
  return s;
}

/// `count` neighbours of `v` on each side, one ulp apart, and `v` itself.
void push_neighbours(std::vector<double>& out, double v, int count) {
  double up = v;
  double down = v;
  out.push_back(v);
  for (int i = 0; i < count; ++i) {
    up = std::nextafter(up, std::numeric_limits<double>::infinity());
    down = std::nextafter(down, -std::numeric_limits<double>::infinity());
    out.push_back(up);
    out.push_back(down);
  }
}

TEST(Json, FormatDoubleMatchesThePrintfSearch) {
  std::vector<double> xs;
  Rng rng(17);
  // Random bit patterns: every exponent, normal and subnormal, both signs.
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t bits = rng.engine()();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    xs.push_back(v);
  }
  // What the trace exporter writes: simulated seconds as microseconds, and
  // the differences of two of them (slice durations).
  for (int i = 0; i < 200000; ++i) {
    const double a = rng.uniform(0.0, 7200.0);
    const double b = a + rng.exponential(2.0);
    xs.push_back(a * 1e6);
    xs.push_back(b * 1e6);
    xs.push_back((b - a) * 1e6);
    xs.push_back(b * 1e6 - a * 1e6);
  }
  // Integral values around the "%.1f" cut at 1e15 and around 2^53, where
  // consecutive doubles are 2 apart.
  for (const double v : {1e15, -1e15, 9007199254740992.0, -9007199254740992.0})
    push_neighbours(xs, v, 2000);
  for (int i = -2000; i <= 2000; ++i) {
    xs.push_back(1e15 + i * 0.5);
    xs.push_back(9007199254740992.0 + i * 2.0);
  }
  // Subnormals and zeros; the ends of the normal range.
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng.engine()() & ((std::uint64_t{1} << 52) - 1);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    xs.push_back(v);
    xs.push_back(-v);
  }
  for (const double v : {0.0, -0.0, std::numeric_limits<double>::denorm_min(), DBL_MIN, DBL_MAX})
    push_neighbours(xs, v, 50);
  // Where "%g" switches between fixed and scientific notation, and large
  // powers of ten past the "%.1f" cut.
  for (const double v : {1e-4, 1e-5, 1e16, 1e21, -1e-4, -1e-5, -1e16, -1e21})
    push_neighbours(xs, v, 500);
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.uniform(1e-5, 1e-3));
  xs.push_back(std::numeric_limits<double>::quiet_NaN());
  xs.push_back(std::numeric_limits<double>::infinity());
  xs.push_back(-std::numeric_limits<double>::infinity());
  ASSERT_GE(xs.size(), 1000000u);

  std::size_t mismatches = 0;
  for (const double v : xs) {
    const std::string want = printf_search(v);
    const std::string got = json::Value::format_double(v);
    if (got != want && ++mismatches <= 10)
      ADD_FAILURE() << std::hexfloat << v << ": format_double gave " << got
                    << ", the printf search " << want;
  }
  EXPECT_EQ(mismatches, 0u) << "of " << xs.size() << " doubles";
  // A few fixed points of the rule.
  EXPECT_EQ(json::Value::format_double(120.0), "120.0");
  EXPECT_EQ(json::Value::format_double(-0.0), "-0.0");
  EXPECT_EQ(json::Value::format_double(0.0001), "0.0001");
  EXPECT_EQ(json::Value::format_double(0.00001), "1e-05");
  EXPECT_EQ(json::Value::format_double(1e16), "1e+16");
  EXPECT_EQ(json::Value::format_double(1234567890123456.0), "1234567890123456.0");
}

TEST(Json, ValueIsCompact) {
  // One variant alternative at a time: 40 bytes on LP64 (a std::string plus
  // the index), against 104 when every alternative had its own member.
  EXPECT_LE(sizeof(json::Value), 48u);
}

TEST(Json, StreamedDumpMatchesDump) {
  // Large enough that dump(os) hands the stream several 64 KiB chunks.
  json::Value doc = json::Value::array();
  for (int i = 0; i < 5000; ++i) {
    json::Value e = json::Value::object();
    e["name"] = "event \"" + std::to_string(i) + "\"\n";
    e["ts"] = i * 1234.5678;
    e["args"]["id"] = i;
    doc.push_back(std::move(e));
  }
  for (const int indent : {0, 2}) {
    std::ostringstream os;
    doc.dump(os, indent);
    EXPECT_GT(os.str().size(), std::size_t{1} << 17);
    EXPECT_EQ(os.str(), doc.dump(indent));
  }
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(Json, ArrayWriterMatchesSaveFile) {
  // The last array takes several 64 KiB hand-offs, inside elements and
  // between them.
  json::Value big = json::Value::array();
  for (int i = 0; i < 3000; ++i) {
    json::Value e = json::Value::object();
    e["name"] = "event \"" + std::to_string(i) + "\"\n";
    e["ts"] = i * 1234.5678;
    e["args"]["ids"] = json::Value::array();
    for (int k = 0; k < i % 7; ++k) e["args"]["ids"].push_back(k);
    big.push_back(std::move(e));
  }
  json::Value one = json::Value::array();
  one.push_back(json::Value::object());
  const std::string dir = testing::TempDir();
  for (const json::Value* array : {&big, &one}) {
    for (const std::string key : {"", "cells"}) {
      json::Value whole = *array;
      if (!key.empty()) {
        whole = json::Value::object();
        whole[key] = *array;
      }
      json::save_file(whole, dir + "/array_writer_whole.json");
      json::ArrayWriter out(dir + "/array_writer_streamed.json", key);
      for (const auto& e : array->items()) out.push(e);
      out.close();
      EXPECT_EQ(read_file(dir + "/array_writer_streamed.json"),
                read_file(dir + "/array_writer_whole.json"))
          << "key '" << key << "', " << array->items().size() << " elements";
    }
  }
  // No element at all: "[]" and {"cells": []}, as save_file writes them.
  json::ArrayWriter(dir + "/array_writer_empty.json").close();
  EXPECT_EQ(read_file(dir + "/array_writer_empty.json"), "[]\n");
  json::ArrayWriter(dir + "/array_writer_empty.json", "cells").close();
  EXPECT_EQ(read_file(dir + "/array_writer_empty.json"), "{\n  \"cells\": []\n}\n");
  if (std::filesystem::exists("/dev/full")) {
    json::ArrayWriter full("/dev/full", "cells");
    full.push(one);
    EXPECT_THROW(full.close(), std::runtime_error);
  }
}

TEST(Json, SaveFileReportsAFullDevice) {
  // /dev/full opens, then fails every write: the error shows only when the
  // buffered bytes are flushed.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this host";
  json::Value doc = json::Value::object();
  doc["cells"] = json::Value::array();
  try {
    json::save_file(doc, "/dev/full");
    ADD_FAILURE() << "save_file to /dev/full did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "cannot write /dev/full");
  }
}

}  // namespace
}  // namespace smiless
