// Single-threaded semantics of SnapshotCache: staleness bounds (ops and
// wall-interval), epoch swaps, hit/refresh accounting, refresher-failure
// tolerance, and Peek().  The racing behavior lives in
// sharded_stress_test.cc under TSan.

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "common/result.h"
#include "concurrency/snapshot_cache.h"

namespace aqua {
namespace {

/// A trivial "synopsis": the number of times the refresher ran.
struct Counter {
  int builds = 0;
};

TEST(SnapshotCacheTest, FirstGetBuildsThenHits) {
  int builds = 0;
  SnapshotCache<Counter> cache(
      [&builds]() -> Result<Counter> { return Counter{++builds}; },
      {.max_stale_ops = 100,
       .max_stale_interval = std::chrono::hours(1)});
  EXPECT_EQ(cache.Peek(), nullptr);
  EXPECT_EQ(cache.epoch(), 0u);

  const auto first = cache.Get();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.ValueOrDie()->builds, 1);
  EXPECT_EQ(cache.epoch(), 1u);

  // No ops reported, interval far away: every Get() is a hit on epoch 1.
  for (int i = 0; i < 5; ++i) {
    const auto again = cache.Get();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.ValueOrDie()->builds, 1);
  }
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.Stats().hits, 5);
  EXPECT_EQ(cache.Stats().refreshes, 1);
}

TEST(SnapshotCacheTest, OpsBoundTriggersRefresh) {
  int builds = 0;
  SnapshotCache<Counter> cache(
      [&builds]() -> Result<Counter> { return Counter{++builds}; },
      {.max_stale_ops = 10, .max_stale_interval = std::chrono::hours(1)});
  (void)cache.Get();
  EXPECT_FALSE(cache.IsStale());

  cache.OnOps(9);
  EXPECT_FALSE(cache.IsStale());
  EXPECT_EQ(cache.Get().ValueOrDie()->builds, 1);  // still a hit

  cache.OnOps(1);  // reaches the bound
  EXPECT_TRUE(cache.IsStale());
  EXPECT_EQ(cache.Get().ValueOrDie()->builds, 2);
  EXPECT_EQ(cache.epoch(), 2u);
  EXPECT_FALSE(cache.IsStale());  // counter consumed by the refresh
}

TEST(SnapshotCacheTest, OpsDuringRefreshCarryOver) {
  int builds = 0;
  SnapshotCache<Counter>* cache_ptr = nullptr;
  SnapshotCache<Counter> cache(
      [&builds, &cache_ptr]() -> Result<Counter> {
        // Ingest lands *while* the merge runs: those ops must count toward
        // the next staleness window, not be silently absorbed.
        if (cache_ptr != nullptr && builds == 0) cache_ptr->OnOps(7);
        return Counter{++builds};
      },
      {.max_stale_ops = 5, .max_stale_interval = std::chrono::hours(1)});
  cache_ptr = &cache;
  (void)cache.Get();  // first build; refresher reports 7 mid-merge ops
  EXPECT_TRUE(cache.IsStale());  // 7 >= 5 already pending
  EXPECT_EQ(cache.Get().ValueOrDie()->builds, 2);
  EXPECT_FALSE(cache.IsStale());
}

TEST(SnapshotCacheTest, WallIntervalTriggersRefresh) {
  int builds = 0;
  SnapshotCache<Counter> cache(
      [&builds]() -> Result<Counter> { return Counter{++builds}; },
      {.max_stale_ops = 0,  // ops bound disabled
       .max_stale_interval = std::chrono::milliseconds(20)});
  (void)cache.Get();
  EXPECT_EQ(builds, 1);
  cache.OnOps(1);  // a trickle far below any ops bound
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(cache.IsStale());
  EXPECT_EQ(cache.Get().ValueOrDie()->builds, 2);
}

TEST(SnapshotCacheTest, IntervalWithoutOpsDoesNotRefresh) {
  // No op since the last refresh: the next epoch would copy this one, so
  // an elapsed interval alone does not make the cache stale.
  int builds = 0;
  SnapshotCache<Counter> cache(
      [&builds]() -> Result<Counter> { return Counter{++builds}; },
      {.max_stale_ops = 100,
       .max_stale_interval = std::chrono::milliseconds(5)});
  (void)cache.Get();
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_FALSE(cache.IsStale());
  EXPECT_EQ(cache.Get().ValueOrDie()->builds, 1);
  EXPECT_EQ(cache.epoch(), 1u);

  cache.OnOps(1);
  EXPECT_TRUE(cache.IsStale());  // the interval has long elapsed
  EXPECT_EQ(cache.Get().ValueOrDie()->builds, 2);
}

TEST(SnapshotCacheTest, DisabledBoundsNeverRefreshAgain) {
  int builds = 0;
  SnapshotCache<Counter> cache(
      [&builds]() -> Result<Counter> { return Counter{++builds}; },
      {.max_stale_ops = 0,
       .max_stale_interval = std::chrono::nanoseconds(0)});
  (void)cache.Get();
  cache.OnOps(1000000);
  EXPECT_FALSE(cache.IsStale());
  EXPECT_EQ(cache.Get().ValueOrDie()->builds, 1);
}

TEST(SnapshotCacheTest, FirstRefreshFailurePropagates) {
  SnapshotCache<Counter> cache(
      []() -> Result<Counter> {
        return Status::Internal("merge failed");
      },
      {.max_stale_ops = 1, .max_stale_interval = std::chrono::hours(1)});
  const auto result = cache.Get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_EQ(cache.epoch(), 0u);
}

TEST(SnapshotCacheTest, LaterRefreshFailureServesPreviousEpoch) {
  int builds = 0;
  bool fail = false;
  SnapshotCache<Counter> cache(
      [&builds, &fail]() -> Result<Counter> {
        if (fail) return Status::Internal("merge failed");
        return Counter{++builds};
      },
      {.max_stale_ops = 1, .max_stale_interval = std::chrono::hours(1)});
  ASSERT_TRUE(cache.Get().ok());
  fail = true;
  cache.OnOps(5);
  const auto served = cache.Get();  // refresh fails, previous epoch serves
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served.ValueOrDie()->builds, 1);
  EXPECT_EQ(cache.epoch(), 1u);
  fail = false;
  const auto recovered = cache.Get();  // still stale; now succeeds
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.ValueOrDie()->builds, 2);
  EXPECT_EQ(cache.epoch(), 2u);
}

TEST(SnapshotCacheTest, ForcedRefreshSwapsEpochWithoutStaleness) {
  int builds = 0;
  SnapshotCache<Counter> cache(
      [&builds]() -> Result<Counter> { return Counter{++builds}; },
      {.max_stale_ops = 1000, .max_stale_interval = std::chrono::hours(1)});
  (void)cache.Get();
  EXPECT_TRUE(cache.Refresh().ok());
  EXPECT_EQ(cache.epoch(), 2u);
  EXPECT_EQ(cache.Peek()->builds, 2);
}

TEST(SnapshotCacheTest, ExternalRefreshNeverRebuildsInline) {
  int builds = 0;
  SnapshotCache<Counter> cache(
      [&builds]() -> Result<Counter> { return Counter{++builds}; },
      {.max_stale_ops = 1,
       .max_stale_interval = std::chrono::hours(1),
       .external_refresh = true});
  // Bootstrap: the very first Get() must still build inline — serving null
  // would be worse than one inline build.
  EXPECT_EQ(cache.Get().ValueOrDie()->builds, 1);
  EXPECT_EQ(cache.Stats().inline_refreshes, 1);

  cache.OnOps(100);
  ASSERT_TRUE(cache.IsStale());
  // Stale + warmed: every Get() is a pointer copy of the current epoch; the
  // re-merge belongs to the pump.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(cache.Get().ValueOrDie()->builds, 1);
  }
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.Stats().inline_refreshes, 1);
  EXPECT_EQ(cache.Stats().stale_served, 5);
  EXPECT_TRUE(cache.IsStale());  // nothing consumed the staleness

  // Only Refresh() — the pump's entry point — rebuilds.
  ASSERT_TRUE(cache.Refresh().ok());
  EXPECT_EQ(cache.Stats().external_refreshes, 1);
  EXPECT_EQ(cache.Stats().inline_refreshes, 1);
  EXPECT_FALSE(cache.IsStale());
  EXPECT_EQ(cache.Get().ValueOrDie()->builds, 2);
}

TEST(SnapshotCacheTest, RefreshFailuresAreCountedNotSwallowed) {
  int builds = 0;
  bool fail = false;
  SnapshotCache<Counter> cache(
      [&builds, &fail]() -> Result<Counter> {
        if (fail) return Status::Internal("merge failed");
        return Counter{++builds};
      },
      {.max_stale_ops = 1, .max_stale_interval = std::chrono::hours(1)});
  ASSERT_TRUE(cache.Get().ok());
  EXPECT_EQ(cache.Stats().refresh_failures, 0);

  fail = true;
  cache.OnOps(5);
  ASSERT_TRUE(cache.Get().ok());  // previous epoch serves
  EXPECT_EQ(cache.Stats().refresh_failures, 1);
  EXPECT_FALSE(cache.Refresh().ok());  // forced refresh surfaces the status
  EXPECT_EQ(cache.Stats().refresh_failures, 2);

  fail = false;
  ASSERT_TRUE(cache.Refresh().ok());
  EXPECT_EQ(cache.Stats().refresh_failures, 2);
  EXPECT_EQ(cache.Peek()->builds, 2);
}

TEST(SnapshotCacheTest, RefreshLatencyPercentilesTrackTheMerge) {
  SnapshotCache<Counter> cache(
      []() -> Result<Counter> {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return Counter{1};
      },
      {.max_stale_ops = 1000, .max_stale_interval = std::chrono::hours(1)});
  EXPECT_EQ(cache.Stats().refresh_ns_p50, 0);
  (void)cache.Get();
  ASSERT_TRUE(cache.Refresh().ok());
  ASSERT_TRUE(cache.Refresh().ok());
  const auto stats = cache.Stats();
  EXPECT_GE(stats.refresh_ns_p50, 2'000'000);
  EXPECT_GE(stats.refresh_ns_p99, stats.refresh_ns_p50);
}

}  // namespace
}  // namespace aqua
