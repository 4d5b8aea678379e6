#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

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

}  // namespace
}  // namespace smiless
