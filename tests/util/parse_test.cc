#include "util/parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "util/thread_pool.h"

namespace tasfar {
namespace {

constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

TEST(ParseUnsignedTest, AcceptsWholeDecimalsWithinTheRange) {
  EXPECT_EQ(ParseUnsigned("0", 0, 10), 0u);
  EXPECT_EQ(ParseUnsigned("7", 0, 10), 7u);
  EXPECT_EQ(ParseUnsigned("10", 0, 10), 10u);
  EXPECT_EQ(ParseUnsigned("007", 0, 10), 7u);
  EXPECT_EQ(ParseUnsigned("65535", 0, 65535), 65535u);
  EXPECT_EQ(ParseUnsigned("18446744073709551615", 0, kU64Max), kU64Max);
}

TEST(ParseUnsignedTest, RejectsValuesOutsideTheRange) {
  EXPECT_FALSE(ParseUnsigned("11", 0, 10).has_value());
  EXPECT_FALSE(ParseUnsigned("0", 1, 10).has_value());
  EXPECT_FALSE(ParseUnsigned("70000", 0, 65535).has_value());
  EXPECT_FALSE(ParseUnsigned("4294967296", 0, 4294967295u).has_value());
}

TEST(ParseUnsignedTest, RejectsAnythingButDigits) {
  for (const char* text : {"", "-1", "+1", " 1", "1 ", "1x", "abc", "0x10",
                           "1e3", "1.0", "1,000", "\t", "-0"}) {
    EXPECT_FALSE(ParseUnsigned(text, 0, kU64Max).has_value())
        << '"' << text << '"';
  }
}

TEST(ParseUnsignedTest, RejectsValuesThatOverflowUint64) {
  EXPECT_FALSE(ParseUnsigned("18446744073709551616", 0, kU64Max).has_value());
  EXPECT_FALSE(ParseUnsigned("99999999999999999999999", 0, kU64Max)
                   .has_value());
}

TEST(ParseUnsignedTest, ThreadCountRangeRejectsWrapsAndRunaways) {
  // The TASFAR_NUM_THREADS range: "-1" would wrap to 2^64 − 1 under
  // strtoul, and 100000 would start 100,000 workers.
  EXPECT_EQ(ParseUnsigned("8", 1, kMaxNumThreads), 8u);
  EXPECT_EQ(ParseUnsigned("1024", 1, kMaxNumThreads), kMaxNumThreads);
  for (const char* text : {"0", "-1", "1025", "100000", "4294967296"}) {
    EXPECT_FALSE(ParseUnsigned(text, 1, kMaxNumThreads).has_value()) << text;
  }
}

TEST(ParseOrExitDeathTest, ExitsTwoNamingProgramFlagAndRange) {
  EXPECT_EQ(ParseOrExit("tool", "--port", "80", 1, 65535), 80u);
  EXPECT_EXIT(ParseOrExit("tool", "--port", "70000", 1, 65535),
              ::testing::ExitedWithCode(2),
              "tool: --port must be a whole number in \\[1, 65535\\], "
              "got \"70000\"");
  EXPECT_EXIT(ParseOrExit("tool", "ROWS", "-1", 1, 1000000),
              ::testing::ExitedWithCode(2), "ROWS must be a whole number");
}

}  // namespace
}  // namespace tasfar
