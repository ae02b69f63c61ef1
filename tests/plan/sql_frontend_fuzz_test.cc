// Fuzz pin for the /query SQL parser: this TU replaces global operator
// new/delete with counting versions and drives ParseSqlQuery with every
// truncation of a valid corpus, random garbage, overlong numerics, and
// kind-confused statements.  The contract under attack input is strict:
// a clean InvalidArgument (or OK for prefixes that happen to be complete
// statements), ZERO allocator calls either way — a hostile payload is
// rejected before the request touches the heap — and `*out` untouched on
// failure.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "plan/sql_frontend.h"
#include "random/random.h"

namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace aqua {
namespace {

/// Parses `text` asserting the no-allocation contract; returns the status.
Status ParseCounting(std::string_view text) {
  ParsedSqlQuery parsed;
  parsed.target = "sentinel";
  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  const Status status = ParseSqlQuery(text, &parsed);
  const std::int64_t delta =
      g_allocations.load(std::memory_order_relaxed) - before;
  EXPECT_EQ(delta, 0) << "parse allocated " << delta << " times on: " << text;
  if (!status.ok()) {
    EXPECT_TRUE(status.IsInvalidArgument()) << text;
    EXPECT_EQ(parsed.target, "sentinel") << "*out written on failure: " << text;
  }
  return status;
}

const char* const kCorpus[] = {
    "SELECT APPROX(COUNT(*)) FROM stream WHERE v BETWEEN 0 AND 50 "
    "ERROR 2% CONFIDENCE 95% WITHIN 1ms;",
    "select approx(count(distinct v)) from price confidence 0.99",
    "SELECT APPROX(FREQUENCY(-42)) FROM region-7 WITHIN 250us",
    "SELECT APPROX(QUANTILE(0.25)) FROM s ERROR 0.1",
    "SELECT APPROX(MEDIAN) FROM stream",
    "SELECT APPROX(TOP(10)) FROM stream WITHIN 2 s",
};

TEST(SqlFrontendFuzzTest, TruncationAtEveryByteIsClean) {
  for (const char* statement : kCorpus) {
    const std::string_view full(statement);
    // Every prefix, including empty and full: never a crash, never an
    // allocation; the full statement must parse.
    for (std::size_t len = 0; len <= full.size(); ++len) {
      const Status status = ParseCounting(full.substr(0, len));
      if (len == full.size()) {
        EXPECT_TRUE(status.ok()) << full;
      }
    }
  }
}

TEST(SqlFrontendFuzzTest, RandomGarbageIsRejectedWithoutAllocating) {
  Random rng(0xF00DFACEULL);
  std::string text;
  text.reserve(512);
  for (int trial = 0; trial < 20000; ++trial) {
    const int len = static_cast<int>(rng.UniformInt(0, 256));
    text.clear();
    for (int i = 0; i < len; ++i) {
      // Full byte range: control bytes, UTF-8 fragments, NULs.
      text.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    ParseCounting(text);
  }
}

TEST(SqlFrontendFuzzTest, MutatedCorpusIsCleanEitherWay) {
  Random rng(0x5EEDFULL);
  std::string text;
  for (int trial = 0; trial < 20000; ++trial) {
    text = kCorpus[rng.UniformInt(
        0, static_cast<std::int64_t>(std::size(kCorpus)) - 1)];
    const int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const auto at = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(text.size()) - 1));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          text[at] = static_cast<char>(rng.UniformInt(0, 255));
          break;
        case 1:
          text.erase(at, 1);
          break;
        default:
          text.insert(at, 1, static_cast<char>(rng.UniformInt(32, 126)));
          break;
      }
      if (text.empty()) text.push_back('x');
    }
    ParseCounting(text);
  }
}

TEST(SqlFrontendFuzzTest, OverlongNumericsAreRejectedBeforeAllocation) {
  const std::string digits(4096, '9');
  const std::string decimals = "0." + std::string(4096, '0') + "1";
  // Overlong integers overflow from_chars; overlong doubles are cut off
  // by the parser's token-length bound before from_chars could reach for
  // a heap scratch buffer.
  EXPECT_FALSE(
      ParseCounting("SELECT APPROX(FREQUENCY(" + digits + ")) FROM s").ok());
  EXPECT_FALSE(ParseCounting("SELECT APPROX(TOP(" + digits + ")) FROM s").ok());
  EXPECT_FALSE(
      ParseCounting("SELECT APPROX(QUANTILE(" + decimals + ")) FROM s").ok());
  EXPECT_FALSE(ParseCounting("SELECT APPROX(COUNT(*)) FROM s WHERE v BETWEEN " +
                             digits + " AND 9")
                   .ok());
  EXPECT_FALSE(
      ParseCounting("SELECT APPROX(COUNT(*)) FROM s ERROR " + decimals).ok());
  EXPECT_FALSE(ParseCounting("SELECT APPROX(COUNT(*)) FROM s CONFIDENCE 0." +
                             std::string(4096, '9'))
                   .ok());
  EXPECT_FALSE(ParseCounting("SELECT APPROX(COUNT(*)) FROM s WITHIN 1" +
                             std::string(4096, '0') + "ms")
                   .ok());
  // Infinity and NaN spellings are numbers to from_chars but not to us.
  EXPECT_FALSE(ParseCounting("SELECT APPROX(COUNT(*)) FROM s ERROR inf").ok());
  EXPECT_FALSE(ParseCounting("SELECT APPROX(COUNT(*)) FROM s ERROR nan").ok());
}

TEST(SqlFrontendFuzzTest, KindConfusionIsRejected) {
  // WHERE belongs to COUNT(*); attaching it to any other aggregate is
  // client confusion, rejected rather than silently ignored.
  for (const char* agg :
       {"MEDIAN", "TOP(3)", "FREQUENCY(1)", "QUANTILE(0.5)",
        "COUNT(DISTINCT v)"}) {
    const std::string text = std::string("SELECT APPROX(") + agg +
                             ") FROM s WHERE v BETWEEN 0 AND 9";
    EXPECT_EQ(ParseCounting(text).message(), "bad WHERE") << text;
  }
  // Parameter shapes crossed between kinds.
  EXPECT_FALSE(ParseCounting("SELECT APPROX(TOP(0.5)) FROM s").ok());
  EXPECT_FALSE(ParseCounting("SELECT APPROX(FREQUENCY(abc)) FROM s").ok());
  EXPECT_FALSE(ParseCounting("SELECT APPROX(QUANTILE(*)) FROM s").ok());
  EXPECT_FALSE(ParseCounting("SELECT APPROX(COUNT(DISTINCT)) FROM s").ok());
  EXPECT_FALSE(ParseCounting("SELECT APPROX(MEDIAN(0.5)) FROM s").ok());
}

}  // namespace
}  // namespace aqua
