// EpochPump lifecycle plus the pump-mode serving contract: with
// external_refresh handed to the pump, no query thread ever executes a
// re-merge — inline_refreshes stays at its bootstrap value across churning
// ingest and concurrent queries.  The churn test doubles as the TSan
// stress for the pump thread racing Get()/InsertBatch (CI runs the
// EpochPump suite under ThreadSanitizer).

#include "server/epoch_pump.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "plan/planner.h"
#include "server/serving_engine.h"
#include "workload/generators.h"

namespace aqua {
namespace {

TEST(EpochPumpTest, StartStopLifecycleIsIdempotent) {
  std::atomic<bool> stale{false};
  std::atomic<int> settles{0};
  EpochPump pump(EpochPumpOptions{.interval = std::chrono::milliseconds(1)});
  pump.AddDomain(
      "d", [&stale] { return stale.load(std::memory_order_acquire); },
      [&stale, &settles] {
        settles.fetch_add(1, std::memory_order_relaxed);
        stale.store(false, std::memory_order_release);
      });
  EXPECT_FALSE(pump.running());
  pump.Start();
  pump.Start();  // idempotent
  EXPECT_TRUE(pump.running());

  stale.store(true, std::memory_order_release);
  for (int i = 0; i < 5000 && settles.load(std::memory_order_relaxed) == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(settles.load(std::memory_order_relaxed), 1);

  const EpochPump::Stats stats = pump.GetStats();
  EXPECT_EQ(stats.domains, 1u);
  EXPECT_GE(stats.ticks, 1);
  EXPECT_GE(stats.refreshes, 1);
  EXPECT_GE(stats.max_backlog, 1);

  pump.Stop();
  pump.Stop();  // idempotent
  EXPECT_FALSE(pump.running());
}

TEST(EpochPumpTest, QuiescentDomainTicksWithoutSettling) {
  std::atomic<int> settles{0};
  EpochPump pump(EpochPumpOptions{.interval = std::chrono::milliseconds(1)});
  pump.AddDomain(
      "idle", [] { return false; },
      [&settles] { settles.fetch_add(1, std::memory_order_relaxed); });
  pump.Start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pump.Stop();
  const EpochPump::Stats stats = pump.GetStats();
  EXPECT_GE(stats.ticks, 1);
  EXPECT_EQ(stats.refreshes, 0);
  EXPECT_EQ(stats.backlog, 0);
  EXPECT_EQ(settles.load(std::memory_order_relaxed), 0);
}

TEST(EpochPumpTest, EachDomainGetsItsOwnCadence) {
  // A slow domain's settle must not delay the fast domain's refreshes.
  std::atomic<int> fast_settles{0};
  std::atomic<int> slow_settles{0};
  EpochPump pump(EpochPumpOptions{.interval = std::chrono::milliseconds(1)});
  pump.AddDomain(
      "slow", [] { return true; },
      [&slow_settles] {
        slow_settles.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      });
  pump.AddDomain(
      "fast", [] { return true; },
      [&fast_settles] {
        fast_settles.fetch_add(1, std::memory_order_relaxed);
      });
  pump.Start();
  for (int i = 0;
       i < 5000 && (fast_settles.load(std::memory_order_relaxed) < 5 ||
                    slow_settles.load(std::memory_order_relaxed) < 1);
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pump.Stop();
  EXPECT_GE(slow_settles.load(std::memory_order_relaxed), 1);
  EXPECT_GE(fast_settles.load(std::memory_order_relaxed), 5)
      << "fast domain was starved behind the slow domain's merge";
}

/// The acceptance criterion for --refresh-mode pump: across concurrent
/// ingest and queries, the pump owns every re-merge — the handles'
/// inline_refreshes counters never move past the warm-up value.
TEST(EpochPumpTest, PumpOwnsEveryRefreshUnderChurn) {
  ServingEngineOptions options;
  options.shards = 4;
  options.cache_max_stale_ops = 512;
  options.cache_max_stale_interval = std::chrono::milliseconds(2);
  options.external_refresh = true;
  ServingEngine engine(options);

  // Warm every snapshot cache from the maintenance path, so the inline
  // bootstrap never runs on a query thread.
  const std::vector<Value> seed_data = ZipfValues(4096, 500, 1.0, 42);
  engine.InsertBatch(seed_data);
  engine.SettleCaches();

  const auto inline_refreshes = [&engine] {
    std::int64_t total = 0;
    for (const SynopsisHandleStats& s : engine.GetStats().synopses) {
      total += s.cache.inline_refreshes;
    }
    return total;
  };
  ASSERT_EQ(inline_refreshes(), 0)
      << "SettleCaches() warm-up must count as external refreshes";
  const std::uint64_t warm_epoch = engine.ServingEpoch();

  EpochPump pump(EpochPumpOptions{.interval = std::chrono::milliseconds(1)});
  pump.AddDomain(
      "stream", [&engine] { return engine.AnyCacheStale(); },
      [&engine] { engine.SettleCaches(); });
  pump.Start();

  constexpr int kIngestThreads = 2;
  constexpr int kQueryThreads = 2;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&engine, t] {
      for (int batch = 0; batch < 40; ++batch) {
        const std::vector<Value> data = ZipfValues(
            1024, 500, 1.0,
            1000 + 31ULL * static_cast<std::uint64_t>(t) +
                static_cast<std::uint64_t>(batch));
        engine.InsertBatch(data);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&engine, &done] {
      PlannedResponse response;
      while (!done.load(std::memory_order_acquire)) {
        for (const PlannedQuery& query :
             {PlannedQuery{.kind = QueryKind::kHotList, .k = 10},
              PlannedQuery{.kind = QueryKind::kFrequency, .value = 7},
              PlannedQuery{.kind = QueryKind::kQuantile},
              PlannedQuery{.kind = QueryKind::kDistinct}}) {
          RunPlannedQueryInto(engine.registry(), query, &response);
        }
      }
    });
  }
  for (int t = 0; t < kIngestThreads; ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  for (int t = kIngestThreads; t < kIngestThreads + kQueryThreads; ++t) {
    threads[t].join();
  }
  pump.Stop();

  EXPECT_EQ(inline_refreshes(), 0)
      << "a query thread executed a re-merge in pump mode";
  EXPECT_GT(engine.ServingEpoch(), warm_epoch)
      << "the pump never advanced an epoch during the churn";
  std::int64_t external = 0;
  for (const SynopsisHandleStats& s : engine.GetStats().synopses) {
    external += s.cache.external_refreshes;
  }
  EXPECT_GT(external, 0);
  EXPECT_GT(pump.GetStats().refreshes, 0);

  // Idle: once the churn is settled, no op arrives, so the pump ticks
  // well past the 2 ms interval without refreshing or advancing an epoch.
  engine.SettleCaches();
  const std::int64_t settled_refreshes = pump.GetStats().refreshes;
  const std::int64_t settled_ticks = pump.GetStats().ticks;
  const std::uint64_t settled_epoch = engine.ServingEpoch();
  // About 20 ms: twenty 1 ms ticks, ten times the interval.
  const std::int64_t idle_ticks = settled_ticks + 20;
  pump.Start();
  for (int i = 0; i < 5000 && pump.GetStats().ticks < idle_ticks; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pump.Stop();
  EXPECT_GE(pump.GetStats().ticks, idle_ticks);
  EXPECT_EQ(pump.GetStats().refreshes, settled_refreshes);
  EXPECT_EQ(engine.ServingEpoch(), settled_epoch);
}

}  // namespace
}  // namespace aqua
