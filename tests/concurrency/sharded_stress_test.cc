// Concurrency stress tests: DrainInto() racing InsertBatch() on a
// ShardedSynopsis, a sharded handle's epoch refreshes racing four
// producers, and SnapshotCache readers racing ingest-side OnOps() and
// forced Refresh() calls.  Apart from the exactly-once insert counts, the
// assertions are deliberately weak (counts only grow, epochs structurally
// valid) — the tests' real teeth are the ThreadSanitizer CI job, which
// fails on any data race these interleavings expose.
//
// The container pins us to few cores, so each test keeps thread counts
// small and iteration counts moderate; TSan's happens-before analysis does
// not need parallel *speed*, only overlapping critical sections.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "concurrency/sharded_synopsis.h"
#include "concurrency/snapshot_cache.h"
#include "core/concise_sample.h"
#include "random/xoshiro256.h"
#include "registry/builtin.h"
#include "registry/typed_handle.h"
#include "workload/generators.h"

namespace aqua {
namespace {

ConciseSample MakeConciseShard(std::size_t i, Words footprint = 512) {
  ConciseSampleOptions options;
  options.footprint_bound = footprint;
  std::uint64_t sm = 0xC0FFEE ^ (0x9e3779b97f4a7c15ULL * (i + 1));
  options.seed = SplitMix64Next(sm);
  return ConciseSample(options);
}

/// A refresher in the sharded handle's shape: each epoch is the previous
/// one with the shards drained into it.  The cache's refresh mutex
/// serializes calls, so the running epoch needs no lock of its own.
std::function<Result<ConciseSample>()> DrainingRefresher(
    ShardedSynopsis<ConciseSample>& sharded) {
  auto epoch = std::make_shared<ConciseSample>(
      MakeConciseShard(sharded.num_shards()));
  return [&sharded, epoch]() -> Result<ConciseSample> {
    AQUA_RETURN_NOT_OK(sharded.DrainInto(*epoch));
    return *epoch;
  };
}

TEST(ShardedStress, SnapshotRacesInsertBatchRoundRobin) {
  constexpr std::size_t kShards = 4;
  constexpr int kWriters = 2;
  constexpr int kBatches = 200;
  constexpr std::size_t kBatch = 256;
  ShardedSynopsis<ConciseSample> sharded(
      kShards, [](std::size_t i) { return MakeConciseShard(i); });

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&sharded, w] {
      const std::vector<Value> values = ZipfValues(
          kBatches * static_cast<std::int64_t>(kBatch), 500, 1.0, 77 + w);
      for (std::size_t off = 0; off < values.size(); off += kBatch) {
        sharded.InsertBatch(
            std::span<const Value>(values.data() + off, kBatch));
      }
    });
  }
  ConciseSample epoch = MakeConciseShard(kShards);
  std::thread drainer([&sharded, &stop, &epoch] {
    std::int64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ASSERT_TRUE(sharded.DrainInto(epoch).ok());
      // The epoch only grows: each drain adds some prefix of what each
      // shard took since the previous one.
      const std::int64_t n = epoch.ObservedInserts();
      EXPECT_GE(n, last);
      last = n;
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  drainer.join();

  ASSERT_TRUE(sharded.DrainInto(epoch).ok());
  EXPECT_EQ(epoch.ObservedInserts(),
            static_cast<std::int64_t>(kWriters * kBatches * kBatch));
  EXPECT_EQ(sharded.ObservedInserts(), 0);
  EXPECT_TRUE(epoch.Validate().ok());
}

TEST(ShardedStress, DrainRacesInsertBatch) {
  // Four producers ingest through a sharded handle while a fifth thread
  // refreshes its epoch cache in a loop (every settle is stale, so each
  // one drains the shards into a copy of the previous epoch).  Every
  // insert must reach the epoch exactly once: none lost in a shard, none
  // merged twice.
  constexpr int kProducers = 4;
  constexpr int kBatches = 150;
  constexpr std::size_t kBatch = 256;
  HandleOptions options;
  options.shards = 4;
  options.seed = 0x5EED;
  options.cache_max_stale_ops = 0;
  options.cache_max_stale_interval = std::chrono::nanoseconds(1);
  TypedSynopsisHandle<ConciseSample> handle(ConciseSampleDescriptor(512),
                                            options);

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&handle, p] {
      const std::vector<Value> values =
          ZipfValues(kBatches * static_cast<std::int64_t>(kBatch), 2000, 1.0,
                     0xD0 + static_cast<std::uint64_t>(p));
      for (std::size_t off = 0; off < values.size(); off += kBatch) {
        handle.InsertBatch(
            std::span<const Value>(values.data() + off, kBatch));
        handle.OnIngest(static_cast<std::int64_t>(kBatch));
      }
    });
  }
  std::thread refresher([&handle, &stop] {
    while (!stop.load(std::memory_order_acquire)) handle.SettleCache();
  });
  for (auto& p : producers) p.join();
  stop.store(true, std::memory_order_release);
  refresher.join();

  handle.SettleCache();
  const Result<ConciseSample> epoch = handle.StateCopy();
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch.ValueOrDie().ObservedInserts(),
            static_cast<std::int64_t>(kProducers * kBatches * kBatch));
  EXPECT_TRUE(epoch.ValueOrDie().Validate().ok());
  EXPECT_GT(handle.GetRefreshProfile().incremental_rebuilds, 0);
}

TEST(SnapshotCacheStress, GetRacesOnOpsAndRefresh) {
  constexpr std::size_t kShards = 4;
  ShardedSynopsis<ConciseSample> sharded(
      kShards, [](std::size_t i) { return MakeConciseShard(i); });
  SnapshotCache<ConciseSample> cache(
      DrainingRefresher(sharded),
      {.max_stale_ops = 512,
       .max_stale_interval = std::chrono::milliseconds(1)});

  std::atomic<bool> stop{false};
  std::thread writer([&sharded, &cache] {
    const std::vector<Value> values = ZipfValues(50000, 500, 1.0, 99);
    for (std::size_t off = 0; off < values.size(); off += 128) {
      const std::size_t len = std::min<std::size_t>(128, values.size() - off);
      sharded.InsertBatch(std::span<const Value>(values.data() + off, len));
      cache.OnOps(static_cast<std::int64_t>(len));
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&cache, &stop] {
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const auto snapshot = cache.Get();
        ASSERT_TRUE(snapshot.ok());
        ASSERT_NE(snapshot.ValueOrDie(), nullptr);
        EXPECT_GE(snapshot.ValueOrDie()->ObservedInserts(), 0);
        const std::uint64_t epoch = cache.epoch();
        EXPECT_GE(epoch, last_epoch);  // epochs only move forward
        last_epoch = epoch;
      }
    });
  }
  std::thread maintenance([&cache, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_TRUE(cache.Refresh().ok());
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();
  maintenance.join();

  // After the dust settles, one forced refresh must observe every insert.
  ASSERT_TRUE(cache.Refresh().ok());
  EXPECT_EQ(cache.Peek()->ObservedInserts(), 50000);

  const auto stats = cache.Stats();
  EXPECT_GT(stats.refreshes, 0);
}

TEST(SnapshotCacheStress, PinnedEpochSurvivesConcurrentSwaps) {
  ShardedSynopsis<ConciseSample> sharded(
      2, [](std::size_t i) { return MakeConciseShard(i); });
  sharded.InsertBatch(std::vector<Value>(1000, 42));
  SnapshotCache<ConciseSample> cache(
      DrainingRefresher(sharded),
      {.max_stale_ops = 1, .max_stale_interval = std::chrono::nanoseconds(0)});

  // Pin an epoch, then force many swaps; the pinned snapshot must stay
  // valid and unchanged (readers never block refreshes, refreshes never
  // mutate a published snapshot).
  const auto pinned = cache.Get();
  ASSERT_TRUE(pinned.ok());
  const std::int64_t pinned_inserts =
      pinned.ValueOrDie()->ObservedInserts();
  std::thread churn([&sharded, &cache] {
    for (int i = 0; i < 200; ++i) {
      sharded.InsertBatch(std::vector<Value>(10, 7));
      cache.OnOps(10);
      (void)cache.Get();
    }
  });
  churn.join();
  EXPECT_EQ(pinned.ValueOrDie()->ObservedInserts(), pinned_inserts);
  EXPECT_GT(cache.epoch(), 1u);
}

}  // namespace
}  // namespace aqua
