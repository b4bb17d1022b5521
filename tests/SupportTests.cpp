//===- tests/SupportTests.cpp - support library unit tests ---------------===//

#include "support/FunctionRef.h"
#include "support/Json.h"
#include "support/StringExtras.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>

using namespace denali;

TEST(StrFormat, Basic) {
  EXPECT_EQ(strFormat("x=%d", 42), "x=42");
  EXPECT_EQ(strFormat("%s-%s", "a", "b"), "a-b");
  EXPECT_EQ(strFormat("empty"), "empty");
}

TEST(StrFormat, LongOutput) {
  std::string Long(500, 'y');
  EXPECT_EQ(strFormat("%s", Long.c_str()), Long);
}

TEST(SplitString, Basic) {
  auto Pieces = splitString("a,b,,c", ",");
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[1], "b");
  EXPECT_EQ(Pieces[2], "c");
}

TEST(SplitString, MultipleSeparators) {
  auto Pieces = splitString("a b\tc", " \t");
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[2], "c");
}

TEST(SplitString, Empty) {
  EXPECT_TRUE(splitString("", ",").empty());
  EXPECT_TRUE(splitString(",,,", ",").empty());
}

TEST(ParseIntegerLiteral, Decimal) {
  int64_t V = 0;
  EXPECT_TRUE(parseIntegerLiteral("123", V));
  EXPECT_EQ(V, 123);
  EXPECT_TRUE(parseIntegerLiteral("-7", V));
  EXPECT_EQ(V, -7);
  EXPECT_TRUE(parseIntegerLiteral("+9", V));
  EXPECT_EQ(V, 9);
}

TEST(ParseIntegerLiteral, Hex) {
  int64_t V = 0;
  EXPECT_TRUE(parseIntegerLiteral("0xff", V));
  EXPECT_EQ(V, 255);
  EXPECT_TRUE(parseIntegerLiteral("0XAB", V));
  EXPECT_EQ(V, 0xab);
}

TEST(ParseIntegerLiteral, Rejects) {
  int64_t V = 0;
  EXPECT_FALSE(parseIntegerLiteral("", V));
  EXPECT_FALSE(parseIntegerLiteral("-", V));
  EXPECT_FALSE(parseIntegerLiteral("12a", V));
  EXPECT_FALSE(parseIntegerLiteral("0x", V));
  EXPECT_FALSE(parseIntegerLiteral("abc", V));
}

TEST(ParsePositiveDecimal, AcceptsCycleBudgets) {
  unsigned V = 0;
  EXPECT_TRUE(parsePositiveDecimal("8", V));
  EXPECT_EQ(V, 8u);
  EXPECT_TRUE(parsePositiveDecimal("120", V));
  EXPECT_EQ(V, 120u);
  EXPECT_TRUE(parsePositiveDecimal("4294967295", V));
  EXPECT_EQ(V, 4294967295u);
}

TEST(ParsePositiveDecimal, RejectsZeroSignsAndJunk) {
  // "-3" is the input a bare strtoul or atoi wraps to a huge budget.
  unsigned V = 16;
  for (const char *S :
       {"", "0", "08", "-3", "+3", " 8", "12x", "1.5", "0x10", "abc"})
    EXPECT_FALSE(parsePositiveDecimal(S, V)) << "'" << S << "'";
  EXPECT_EQ(V, 16u); // A rejected value leaves the default in place.
}

TEST(ParsePositiveDecimal, RejectsValuesPastUnsigned) {
  unsigned V = 16;
  EXPECT_FALSE(parsePositiveDecimal("4294967296", V));
  EXPECT_FALSE(parsePositiveDecimal("18446744073709551616", V));
  EXPECT_EQ(V, 16u);
}

TEST(ParseDecimal, AcceptsZeroAndCounts) {
  uint64_t V = 7;
  EXPECT_TRUE(parseDecimal("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseDecimal("64", V));
  EXPECT_EQ(V, 64u);
  EXPECT_TRUE(parseDecimal("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(ParseDecimal, RejectsSignsJunkAndOverflow) {
  uint64_t V = 64;
  for (const char *S : {"", "00", "08", "-3", "+3", " 8", "12x", "1.5",
                        "0x10", "abc", "18446744073709551616"})
    EXPECT_FALSE(parseDecimal(S, V)) << "'" << S << "'";
  EXPECT_EQ(V, 64u);
}

TEST(ParseDecimalNumber, AcceptsZeroCountsAndFractions) {
  double V = 7;
  EXPECT_TRUE(parseDecimalNumber("0", V));
  EXPECT_EQ(V, 0.0);
  EXPECT_TRUE(parseDecimalNumber("250", V));
  EXPECT_EQ(V, 250.0);
  EXPECT_TRUE(parseDecimalNumber("0.5", V));
  EXPECT_EQ(V, 0.5);
  EXPECT_TRUE(parseDecimalNumber(".25", V));
  EXPECT_EQ(V, 0.25);
  EXPECT_TRUE(parseDecimalNumber("3.", V));
  EXPECT_EQ(V, 3.0);
}

TEST(ParseDecimalNumber, RejectsSignsExponentsJunkAndInfinity) {
  double V = 64;
  const std::string TooBig(400, '9'); // Past DBL_MAX.
  for (const char *S : {"", ".", "-1", "+1", " 1", "1 ", "1e3", "0x10",
                        "inf", "nan", "1.5x", "1..5", "1.2.3", "abc",
                        TooBig.c_str()})
    EXPECT_FALSE(parseDecimalNumber(S, V)) << "'" << S << "'";
  EXPECT_EQ(V, 64.0);
}

TEST(FlagValue, TakesTheEqualsAndTheSeparateForms) {
  char Prog[] = "tool", Eq[] = "--x=5", Sep[] = "--x", Val[] = "7",
       Other[] = "--xy=1", Last[] = "--x";
  char *Argv[] = {Prog, Eq, Sep, Val, Other, Last};
  const int Argc = 6;
  int I = 1;
  EXPECT_STREQ(flagValue(Argv[I], "--x", I, Argc, Argv), "5");
  EXPECT_EQ(I, 1);
  I = 2;
  EXPECT_STREQ(flagValue(Argv[I], "--x", I, Argc, Argv), "7");
  EXPECT_EQ(I, 3); // Advanced past the value.
  I = 4;
  EXPECT_EQ(flagValue(Argv[I], "--x", I, Argc, Argv), nullptr);
  EXPECT_EQ(I, 4);
  // The last argument has no value to take.
  I = 5;
  EXPECT_EQ(flagValue(Argv[I], "--x", I, Argc, Argv), nullptr);
  EXPECT_EQ(I, 5);
}

TEST(FormatConstant, SmallDecimalLargeHex) {
  EXPECT_EQ(formatConstant(7), "7");
  EXPECT_EQ(formatConstant(1023), "1023");
  EXPECT_EQ(formatConstant(0xffff), "0xffff");
}

TEST(Json, BmpEscapes) {
  namespace json = support::json;
  std::string Err;
  auto V = json::parse(R"("A\u00E9\u20AC")", &Err);
  ASSERT_NE(V, nullptr) << Err;
  // A, é (2-byte UTF-8), € (3-byte UTF-8).
  EXPECT_EQ(V->stringValue(), "A\xc3\xa9\xe2\x82\xac");
}

TEST(Json, SurrogatePairCombines) {
  namespace json = support::json;
  std::string Err;
  auto V = json::parse(R"("\uD83D\uDE00")", &Err);
  ASSERT_NE(V, nullptr) << Err;
  // U+1F600 as 4-byte UTF-8.
  EXPECT_EQ(V->stringValue(), "\xf0\x9f\x98\x80");
  // Pairs at the extremes of the supplementary range: U+10000, U+10FFFF.
  auto Lo = json::parse(R"("\uD800\uDC00")", &Err);
  ASSERT_NE(Lo, nullptr) << Err;
  EXPECT_EQ(Lo->stringValue(), "\xf0\x90\x80\x80");
  auto Hi = json::parse(R"("\uDBFF\uDFFF")", &Err);
  ASSERT_NE(Hi, nullptr) << Err;
  EXPECT_EQ(Hi->stringValue(), "\xf4\x8f\xbf\xbf");
}

TEST(Json, RejectsLoneSurrogates) {
  namespace json = support::json;
  std::string Err;
  EXPECT_EQ(json::parse(R"("\uD83D")", &Err), nullptr);
  EXPECT_NE(Err.find("unpaired high surrogate"), std::string::npos) << Err;
  EXPECT_EQ(json::parse(R"("\uD83Dx")", &Err), nullptr);
  EXPECT_EQ(json::parse(R"("\uD83D\n")", &Err), nullptr);
  EXPECT_EQ(json::parse(R"("\uD83D\u0041")", &Err), nullptr);
  EXPECT_NE(Err.find("bad low surrogate"), std::string::npos) << Err;
  EXPECT_EQ(json::parse(R"("\uDE00")", &Err), nullptr);
  EXPECT_NE(Err.find("unpaired low surrogate"), std::string::npos) << Err;
  EXPECT_EQ(json::parse(R"("\u12")", &Err), nullptr);
  EXPECT_NE(Err.find("truncated"), std::string::npos) << Err;
}

TEST(Json, NumberForms) {
  namespace json = support::json;
  std::string Err;
  auto V = json::parse(R"([1e3, -0.25, 2.5e-3, 0, -7])", &Err);
  ASSERT_NE(V, nullptr) << Err;
  const auto &A = V->array();
  ASSERT_EQ(A.size(), 5u);
  EXPECT_DOUBLE_EQ(A[0].numberValue(), 1000.0);
  EXPECT_DOUBLE_EQ(A[1].numberValue(), -0.25);
  EXPECT_DOUBLE_EQ(A[2].numberValue(), 0.0025);
  EXPECT_DOUBLE_EQ(A[3].numberValue(), 0.0);
  EXPECT_DOUBLE_EQ(A[4].numberValue(), -7.0);
}

TEST(Timer, Monotonic) {
  Timer T;
  double A = T.seconds();
  double B = T.seconds();
  EXPECT_GE(B, A);
  T.reset();
  EXPECT_GE(T.seconds(), 0.0);
}

TEST(FunctionRefTest, CallsThroughWithoutOwning) {
  int Calls = 0;
  auto Inc = [&](int By) { Calls += By; return Calls; };
  FunctionRef<int(int)> Ref = Inc;
  EXPECT_EQ(Ref(2), 2);
  EXPECT_EQ(Ref(3), 5);
  EXPECT_EQ(Calls, 5);
  FunctionRef<int(int)> Empty;
  EXPECT_FALSE(static_cast<bool>(Empty));
  EXPECT_TRUE(static_cast<bool>(Ref));
}

TEST(ThreadPoolTest, RunsTasksAndReturnsResults) {
  support::ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 32; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));
  for (int I = 0; I < 32; ++I)
    EXPECT_EQ(Futures[I].get(), I * I);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  support::ThreadPool Pool(0);
  EXPECT_EQ(Pool.numThreads(), 1u);
  EXPECT_EQ(Pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  support::ThreadPool Pool(2);
  auto Ok = Pool.submit([] { return 1; });
  auto Bad = Pool.submit(
      []() -> int { throw std::runtime_error("probe exploded"); });
  EXPECT_EQ(Ok.get(), 1);
  EXPECT_THROW(Bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(Pool.submit([] { return 2; }).get(), 2);
}

TEST(ThreadPoolTest, DiscardsQueuedTasksOnDestruction) {
  std::atomic<int> Ran{0};
  std::future<void> Abandoned;
  {
    support::ThreadPool Pool(1);
    std::atomic<bool> Gate{false};
    auto Blocker = Pool.submit([&] {
      while (!Gate.load())
        std::this_thread::yield();
    });
    for (int I = 0; I < 8; ++I)
      Abandoned = Pool.submit([&] { ++Ran; });
    Gate.store(true);
    Blocker.get();
    // Destruction: the blocker finished; queued tasks may or may not have
    // started, but the pool must shut down promptly either way.
  }
  EXPECT_LE(Ran.load(), 8);
}
