// Unit tests for the epoch-keyed response cache, including the measured
// zero-allocation guarantee on the warmed hit path: this TU replaces the
// global operator new/delete with counting versions, so a hit that touched
// the allocator would fail here, not just regress silently in a bench.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "plan/sql_frontend.h"
#include "server/http.h"
#include "server/response_cache.h"

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

// Not inlined: GCC would otherwise see free() reach a pointer from a
// new-expression in this TU and warn (-Wmismatched-new-delete), although
// these operator new replacements allocate with malloc.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace aqua {
namespace {

// HttpRequest views parser-owned storage, so the parser must stay alive
// while the request is examined; this holder bundles the two.  Factories
// return it by prvalue (guaranteed elision — no move of the parser whose
// buffer the views point into).
class ParsedRequest {
 public:
  explicit ParsedRequest(const std::string& wire) {
    EXPECT_EQ(parser_.Feed(wire), HttpRequestParser::State::kComplete);
    request_ = parser_.TakeRequest();
  }
  ParsedRequest(const ParsedRequest&) = delete;
  ParsedRequest& operator=(const ParsedRequest&) = delete;

  operator const HttpRequest&() const { return request_; }

 private:
  HttpRequestParser parser_;
  HttpRequest request_;
};

ParsedRequest GetRequest(const std::string& target,
                         const std::string& extra_headers = "") {
  return ParsedRequest("GET " + target + " HTTP/1.1\r\nHost: t\r\n" +
                       extra_headers + "\r\n");
}

TEST(ResponseCacheTest, HitReturnsStoredBytesVerbatim) {
  ResponseCache cache;
  const ParsedRequest request = GetRequest("/hotlist?k=10");
  const std::string wire = "HTTP/1.1 200 OK\r\n\r\n{\"x\":1}";

  const std::string_view key = cache.BuildKey(request);
  EXPECT_EQ(cache.Lookup("s", 1, key), nullptr);  // cold: miss
  cache.Store("s", 1, key, wire);

  const std::string* hit = cache.Lookup("s", 1, cache.BuildKey(request));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, wire);

  const ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResponseCacheTest, EpochAdvanceMissesStaleEntriesLazily) {
  ResponseCache cache;
  const ParsedRequest a = GetRequest("/hotlist?k=10");
  const ParsedRequest b = GetRequest("/frequency?value=7");
  cache.Store("s", 1, cache.BuildKey(a), "A");
  cache.Store("s", 1, cache.BuildKey(b), "B");
  EXPECT_EQ(cache.GetStats().entries, 2u);

  // A lookup carrying the next epoch misses; the stale entries stay in
  // place (reclaimed lazily by the re-render's Store or cap pressure).
  EXPECT_EQ(cache.Lookup("s", 2, cache.BuildKey(a)), nullptr);
  const ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.invalidations, 1);

  // The re-render's Store overwrites the stale incarnation in place.
  cache.Store("s", 2, cache.BuildKey(a), "A2");
  const std::string* hit = cache.Lookup("s", 2, cache.BuildKey(a));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "A2");
  EXPECT_EQ(cache.GetStats().entries, 2u);
}

TEST(ResponseCacheTest, EpochAdvanceInvalidatesOnlyItsScope) {
  // The surgical contract: attribute A's epoch advance must not disturb
  // attribute B's warmed entries.
  ResponseCache cache;
  const ParsedRequest qa = GetRequest("/attr/price/quantile?q=0.5");
  const ParsedRequest qb = GetRequest("/attr/size/quantile?q=0.5");
  const std::string ka(cache.BuildKey(qa));
  const std::string kb(cache.BuildKey(qb));
  cache.Store("price", 1, ka, "PRICE@1");
  cache.Store("size", 5, kb, "SIZE@5");
  EXPECT_EQ(cache.GetStats().entries, 2u);

  // price advances to epoch 2: its entry goes stale...
  EXPECT_EQ(cache.Lookup("price", 2, ka), nullptr);
  // ...but size keeps hitting at its own (unchanged) epoch.
  const std::string* hit = cache.Lookup("size", 5, kb);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "SIZE@5");

  const ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.invalidations, 1);  // only price's advance
  EXPECT_EQ(stats.entries, 2u);       // nothing evicted eagerly

  // price's re-render replaces its entry; size's is still untouched.
  cache.Store("price", 2, ka, "PRICE@2");
  hit = cache.Lookup("price", 2, ka);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "PRICE@2");
  ASSERT_NE(cache.Lookup("size", 5, kb), nullptr);
}

TEST(ResponseCacheTest, CapPressureSweepsOnlyStaleEntries) {
  ResponseCacheOptions options;
  options.max_entries = 2;
  ResponseCache cache(options);
  const std::string ka(cache.BuildKey(GetRequest("/a?x=1")));
  const std::string kb(cache.BuildKey(GetRequest("/a?x=2")));
  const std::string kc(cache.BuildKey(GetRequest("/a?x=3")));
  cache.Store("s1", 1, ka, "A");
  cache.Store("s2", 1, kb, "B");

  // s1 advances: its entry is stale, so a Store at the cap reclaims it —
  // and only it — to make room.
  EXPECT_EQ(cache.Lookup("s1", 2, ka), nullptr);
  cache.Store("s1", 2, kc, "C");
  const ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.stale_evictions, 1);
  EXPECT_EQ(stats.entries, 2u);
  ASSERT_NE(cache.Lookup("s1", 2, kc), nullptr);
  ASSERT_NE(cache.Lookup("s2", 1, kb), nullptr);  // fresh scope survived
  EXPECT_EQ(cache.Lookup("s1", 2, ka), nullptr);  // the stale one is gone
}

TEST(ResponseCacheTest, ScopedWarmHitPathDoesNotAllocate) {
  // The surgical key carries (scope, epoch) per entry; after the scope is
  // interned, the scoped hit path must not allocate.
  ResponseCache cache;
  const ParsedRequest request = GetRequest("/attr/price/distinct");
  std::string wire(256, 'p');
  cache.Store("price", 3, cache.BuildKey(request), std::move(wire));
  ASSERT_NE(cache.Lookup("price", 3, cache.BuildKey(request)), nullptr);

  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const std::string_view key = cache.BuildKey(request);
    const std::string* hit = cache.Lookup("price", 3, key);
    ASSERT_NE(hit, nullptr);
    ASSERT_EQ(hit->size(), 256u);
  }
  const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "warmed scoped BuildKey+Lookup hit path allocated";
}

TEST(ResponseCacheTest, EquivalentQueriesShareOneKey) {
  ResponseCache cache;
  const ParsedRequest x = GetRequest("/hotlist?k=10&beta=3");
  const ParsedRequest y = GetRequest("/hotlist?beta=3&k=10");
  const ParsedRequest z = GetRequest("/hotlist?k=%31%30&beta=3");
  const std::string kx(cache.BuildKey(x));
  EXPECT_EQ(kx, std::string(cache.BuildKey(y)));
  EXPECT_EQ(kx, std::string(cache.BuildKey(z)));
}

TEST(ResponseCacheTest, KeepAliveBitSplitsTheKey) {
  // The cached wire embeds a Connection: header, so a close request must
  // never replay a keep-alive entry (and vice versa).
  ResponseCache cache;
  const ParsedRequest keep = GetRequest("/distinct");
  const ParsedRequest close_it =
      GetRequest("/distinct", "Connection: close\r\n");
  const std::string keep_key(cache.BuildKey(keep));
  EXPECT_NE(keep_key, std::string(cache.BuildKey(close_it)));

  cache.Store("s", 1, cache.BuildKey(keep), "KEEPALIVE-WIRE");
  EXPECT_EQ(cache.Lookup("s", 1, cache.BuildKey(close_it)), nullptr);
  EXPECT_NE(cache.Lookup("s", 1, cache.BuildKey(keep)), nullptr);
}

TEST(ResponseCacheTest, OversizedAndOverCapStoresAreDropped) {
  ResponseCacheOptions options;
  options.max_entries = 2;
  options.max_entry_bytes = 8;
  ResponseCache cache(options);

  cache.Store("s", 1, cache.BuildKey(GetRequest("/a?x=1")), "123456789");
  EXPECT_EQ(cache.GetStats().entries, 0u);  // oversized

  cache.Store("s", 1, cache.BuildKey(GetRequest("/a?x=1")), "1");
  cache.Store("s", 1, cache.BuildKey(GetRequest("/a?x=2")), "2");
  cache.Store("s", 1, cache.BuildKey(GetRequest("/a?x=3")), "3");  // over cap
  EXPECT_EQ(cache.GetStats().entries, 2u);
  EXPECT_EQ(cache.Lookup("s", 1, cache.BuildKey(GetRequest("/a?x=3"))),
            nullptr);
}

TEST(ResponseCacheTest, BypassAndForcedMissCounters) {
  ResponseCache cache;
  cache.CountBypass();
  cache.CountBypass();
  cache.CountMiss();
  const ResponseCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.bypass, 2);
  EXPECT_EQ(stats.misses, 1);
}

TEST(ResponseCacheTest, WarmHitPathDoesNotAllocate) {
  ResponseCache cache;
  const ParsedRequest request =
      GetRequest("/count_where?low=10&high=5000&confidence=0.95");
  std::string wire(512, 'x');
  cache.Store("s", 7, cache.BuildKey(request), std::move(wire));

  // Warm once: BuildKey's buffer and the canonical-query scratch reach
  // their steady-state capacity.
  ASSERT_NE(cache.Lookup("s", 7, cache.BuildKey(request)), nullptr);

  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const std::string_view key = cache.BuildKey(request);
    const std::string* hit = cache.Lookup("s", 7, key);
    ASSERT_NE(hit, nullptr);
    ASSERT_EQ(hit->size(), 512u);
  }
  const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "warmed BuildKey+Lookup hit path allocated";
}

/// The /query route's canonicalizer, as routes.cc installs it: the SQL
/// text is parsed and re-emitted in canonical form, so the cache key
/// depends on the query's *meaning*, not its spelling.
bool SqlCanonicalKey(const HttpRequest& request, std::string* out) {
  const auto statement = request.QueryParam("q");
  if (!statement.has_value()) return false;
  ParsedSqlQuery parsed;
  if (!ParseSqlQuery(*statement, &parsed).ok()) return false;
  AppendCanonicalSqlKey(parsed, out);
  return true;
}

TEST(ResponseCacheTest, CanonicalSqlSpellingsShareOneEntry) {
  ResponseCache cache;
  const ParsedRequest spelled = GetRequest(
      "/query?q=SELECT%20APPROX(COUNT(*))%20FROM%20stream"
      "%20WHERE%20v%20BETWEEN%200%20AND%2050"
      "%20ERROR%202%25%20CONFIDENCE%2095%25");
  const ParsedRequest respelled = GetRequest(
      "/query?q=select%20approx(count(*))%20from%20stream"
      "%20confidence%200.95%20error%200.02"
      "%20where%20v%20between%200%20and%2050%20;");
  const ParsedRequest different = GetRequest(
      "/query?q=SELECT%20APPROX(COUNT(*))%20FROM%20stream"
      "%20WHERE%20v%20BETWEEN%200%20AND%2051"
      "%20ERROR%202%25%20CONFIDENCE%2095%25");

  std::string_view key;
  ASSERT_TRUE(cache.BuildKeyWith(spelled, SqlCanonicalKey, &key));
  cache.Store("s", 3, key, "PLANNED-WIRE");
  ASSERT_TRUE(cache.BuildKeyWith(respelled, SqlCanonicalKey, &key));
  EXPECT_NE(cache.Lookup("s", 3, key), nullptr)
      << "equivalent spelling missed the cached entry";
  ASSERT_TRUE(cache.BuildKeyWith(different, SqlCanonicalKey, &key));
  EXPECT_EQ(cache.Lookup("s", 3, key), nullptr)
      << "a different range must not share the entry";

  // A statement the parser rejects cannot be keyed: the route serves it
  // uncached (a 400 must never be replayed from the cache).
  const ParsedRequest garbage = GetRequest("/query?q=DROP%20TABLE");
  EXPECT_FALSE(cache.BuildKeyWith(garbage, SqlCanonicalKey, &key));
  const ParsedRequest missing = GetRequest("/query");
  EXPECT_FALSE(cache.BuildKeyWith(missing, SqlCanonicalKey, &key));
}

TEST(ResponseCacheTest, WarmCanonicalSqlHitPathDoesNotAllocate) {
  ResponseCache cache;
  const ParsedRequest request = GetRequest(
      "/query?q=SELECT%20APPROX(QUANTILE(0.9))%20FROM%20price"
      "%20ERROR%205%25%20WITHIN%201ms");
  std::string wire(512, 'q');
  std::string_view key;
  // The canonicalizer is type-erased through the same std::function the
  // route table stores, so the measured path includes that indirection.
  const std::function<bool(const HttpRequest&, std::string*)> canonical =
      SqlCanonicalKey;
  ASSERT_TRUE(cache.BuildKeyWith(request, canonical, &key));
  cache.Store("s", 7, key, std::move(wire));
  ASSERT_NE(cache.Lookup("s", 7, key), nullptr);

  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(cache.BuildKeyWith(request, canonical, &key));
    const std::string* hit = cache.Lookup("s", 7, key);
    ASSERT_NE(hit, nullptr);
    ASSERT_EQ(hit->size(), 512u);
  }
  const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << "warmed canonical /query BuildKeyWith+Lookup hit path allocated";
}

TEST(ResponseCacheTest, StoreAfterEpochAdvanceStartsFresh) {
  ResponseCache cache;
  const ParsedRequest request = GetRequest("/quantile?q=0.5");
  cache.Store("s", 1, cache.BuildKey(request), "EPOCH1");
  cache.Store("s", 2, cache.BuildKey(request), "EPOCH2");
  const std::string* hit = cache.Lookup("s", 2, cache.BuildKey(request));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, "EPOCH2");
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

}  // namespace
}  // namespace aqua
