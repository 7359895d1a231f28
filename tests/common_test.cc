#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "common/env.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"

namespace ppp::common {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing widget");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing widget");
  EXPECT_EQ(s.ToString(), "NotFound: missing widget");
}

TEST(StatusTest, AllFactoryCodesRoundTrip) {
  EXPECT_EQ(Status::InvalidArgument("x").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Result<int> DoubleIfPositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x * 2;
}

Status UseMacros(int x, int* out) {
  PPP_RETURN_IF_ERROR(FailIfNegative(x));
  PPP_ASSIGN_OR_RETURN(*out, DoubleIfPositive(x));
  return Status::OK();
}

TEST(StatusMacrosTest, PropagateAndAssign) {
  int out = 0;
  EXPECT_TRUE(UseMacros(21, &out).ok());
  EXPECT_EQ(out, 42);
  EXPECT_EQ(UseMacros(-1, &out).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(UseMacros(0, &out).code(), StatusCode::kOutOfRange);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"a"}, ","), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a.b.c", '.'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", '.'), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a..b", '.'), (std::vector<std::string>{"a", "", "b"}));
}

TEST(StringUtilTest, ToLowerAndStartsWith) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_TRUE(StartsWith("u100", "u"));
  EXPECT_FALSE(StartsWith("a100", "u"));
  EXPECT_FALSE(StartsWith("u", "u100"));
}

TEST(StringUtilTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(StringPrintf("%.2f", 1.5), "1.50");
  EXPECT_EQ(StringPrintf("empty"), "empty");
}

TEST(EnvFlagTest, UnsetOrEmptyGivesTheDefaultAndOnlyZeroTurnsOff) {
  constexpr const char* kName = "PPP_ENV_FLAG_TEST";
  for (const bool default_on : {false, true}) {
    ::unsetenv(kName);
    EXPECT_EQ(EnvFlag(kName, default_on), default_on);
    ::setenv(kName, "", 1);
    EXPECT_EQ(EnvFlag(kName, default_on), default_on);
    ::setenv(kName, "0", 1);
    EXPECT_FALSE(EnvFlag(kName, default_on));
    ::setenv(kName, "1", 1);
    EXPECT_TRUE(EnvFlag(kName, default_on));
    ::setenv(kName, "false", 1);  // Only "0" means off.
    EXPECT_TRUE(EnvFlag(kName, default_on));
  }
  ::unsetenv(kName);
}

TEST(RandomTest, DeterministicForSameSeed) {
  Random a(123);
  Random b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RandomTest, BoundedStaysInBounds) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint64(10), 10u);
    const int64_t v = rng.NextInt64(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, DoubleInUnitInterval) {
  Random rng(9);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RandomTest, BernoulliTracksProbability) {
  Random rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(RandomTest, ZeroSeedWorks) {
  Random rng(0);
  std::set<uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(rng.NextUint64());
  EXPECT_GT(seen.size(), 95u);  // No short cycles.
}

}  // namespace
}  // namespace ppp::common
