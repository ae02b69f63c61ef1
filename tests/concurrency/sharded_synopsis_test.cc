#include "concurrency/sharded_synopsis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "core/concise_sample.h"
#include "sample/reservoir_sample.h"
#include "workload/generators.h"

namespace aqua {
namespace {

ConciseSample MakeConcise(Words footprint, std::uint64_t seed,
                          std::size_t i) {
  ConciseSampleOptions o;
  o.footprint_bound = footprint;
  o.seed = seed + 7919ULL * (i + 1);
  return ConciseSample(o);
}

ShardedSynopsis<ConciseSample> MakeConciseShards(std::size_t shards,
                                                 Words footprint,
                                                 std::uint64_t seed) {
  return ShardedSynopsis<ConciseSample>(shards, [&](std::size_t i) {
    return MakeConcise(footprint, seed, i);
  });
}

/// The drain target a handle starts from: an empty sample on a stream of
/// its own (index `shards`, past every shard's).
ConciseSample MakeEpoch(std::size_t shards, Words footprint,
                        std::uint64_t seed) {
  return MakeConcise(footprint, seed, shards);
}

std::vector<ValueCount> SortedEntries(const ConciseSample& s) {
  std::vector<ValueCount> entries = s.Entries();
  std::sort(entries.begin(), entries.end(),
            [](const ValueCount& a, const ValueCount& b) {
              return a.value < b.value;
            });
  return entries;
}

TEST(ShardedSynopsisTest, AllInsertsLandInSomeShard) {
  auto sharded = MakeConciseShards(4, 200, 10);
  for (Value v = 0; v < 10000; ++v) sharded.Insert(v % 37);
  EXPECT_EQ(sharded.ObservedInserts(), 10000);
  for (std::size_t i = 0; i < sharded.num_shards(); ++i) {
    sharded.WithShard(i, [](const ConciseSample& s) {
      EXPECT_TRUE(s.Validate().ok());
      // Round-robin: every shard saw an equal slice.
      EXPECT_EQ(s.ObservedInserts(), 2500);
      return 0;
    });
  }
}

TEST(ShardedSynopsisTest, ConcurrentProducersAllObserved) {
  auto sharded = MakeConciseShards(8, 300, 20);
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 40000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sharded, t] {
      ShardedBatchInserter<ConciseSample> inserter(&sharded, 256);
      const std::vector<Value> data = ZipfValues(
          kPerThread, 500, 1.0, 300 + static_cast<std::uint64_t>(t));
      for (Value v : data) inserter.Add(v);
      // Destructor flushes the tail.
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(sharded.ObservedInserts(), kThreads * kPerThread);
  ConciseSample epoch = MakeEpoch(8, 300, 20);
  ASSERT_TRUE(sharded.DrainInto(epoch).ok());
  EXPECT_EQ(epoch.ObservedInserts(), kThreads * kPerThread);
  EXPECT_EQ(sharded.ObservedInserts(), 0);
  EXPECT_TRUE(epoch.Validate().ok());
  EXPECT_LE(epoch.Footprint(), 300);
}

TEST(ShardedSynopsisTest, SnapshotThresholdCoversEveryShard) {
  auto sharded = MakeConciseShards(4, 100, 30);
  const std::vector<Value> data = ZipfValues(200000, 5000, 0.5, 31);
  ShardedBatchInserter<ConciseSample> inserter(&sharded, 1024);
  for (Value v : data) inserter.Add(v);
  inserter.Flush();
  std::vector<double> shard_tau;
  for (std::size_t i = 0; i < sharded.num_shards(); ++i) {
    shard_tau.push_back(sharded.WithShard(
        i, [](const ConciseSample& s) { return s.Threshold(); }));
  }
  ConciseSample epoch = MakeEpoch(4, 100, 30);
  ASSERT_TRUE(sharded.DrainInto(epoch).ok());
  EXPECT_TRUE(epoch.Validate().ok());
  for (std::size_t i = 0; i < sharded.num_shards(); ++i) {
    // Theorem-2 alignment: the epoch's threshold is at least every
    // shard's; and each drained shard is empty at its own threshold.
    EXPECT_GE(epoch.Threshold(), shard_tau[i]);
    sharded.WithShard(i, [&](const ConciseSample& s) {
      EXPECT_DOUBLE_EQ(s.Threshold(), shard_tau[i]);
      EXPECT_EQ(s.Footprint(), 0);
      EXPECT_TRUE(s.Validate().ok());
      return 0;
    });
  }
}

TEST(ShardedSynopsisTest, SnapshotOfReservoirShards) {
  ShardedSynopsis<ReservoirSample> sharded(4, [](std::size_t i) {
    return ReservoirSample(500, 40 + static_cast<std::uint64_t>(i));
  });
  const std::vector<Value> data = UniformValues(100000, 2000, 41);
  ShardedBatchInserter<ReservoirSample> inserter(&sharded, 512);
  for (Value v : data) inserter.Add(v);
  inserter.Flush();
  ReservoirSample epoch(500, 44);
  ASSERT_TRUE(sharded.DrainInto(epoch).ok());
  EXPECT_EQ(epoch.ObservedInserts(), 100000);
  EXPECT_EQ(epoch.SampleSize(), 500);
  // Drained shards restart empty and the next drain extends the epoch.
  for (Value v : UniformValues(50000, 2000, 42)) sharded.Insert(v);
  ASSERT_TRUE(sharded.DrainInto(epoch).ok());
  EXPECT_EQ(epoch.ObservedInserts(), 150000);
  EXPECT_EQ(epoch.SampleSize(), 500);
  // The epoch keeps ingesting correctly on its own too.
  for (Value v : UniformValues(10000, 2000, 43)) epoch.Insert(v);
  EXPECT_EQ(epoch.ObservedInserts(), 160000);
  EXPECT_EQ(epoch.SampleSize(), 500);
}

TEST(ShardedSynopsisTest, SingleShardDegeneratesToShared) {
  auto sharded = MakeConciseShards(1, 100, 60);
  for (Value v : ZipfValues(20000, 100, 1.0, 61)) sharded.Insert(v);
  ConciseSample epoch = MakeEpoch(1, 100, 60);
  ASSERT_TRUE(sharded.DrainInto(epoch).ok());
  EXPECT_EQ(epoch.ObservedInserts(), 20000);
  EXPECT_TRUE(epoch.Validate().ok());
}

TEST(SharedSynopsisTest, InsertBatchRoutesThroughFastPath) {
  // Same seed, same batching: the shared wrapper must land in the same
  // state as calling the synopsis-level InsertBatch directly, proving it
  // routed through the fast path rather than the per-element loop.
  const std::vector<Value> data = ZipfValues(50000, 2000, 1.0, 70);
  ConciseSampleOptions o;
  o.footprint_bound = 300;
  o.seed = 71;
  ConciseSample direct(o);
  direct.InsertBatch(data);

  SharedSynopsis<ConciseSample> shared((ConciseSample(o)));
  shared.InsertBatch(data);
  shared.WithRead([&](const ConciseSample& s) {
    EXPECT_EQ(s.Threshold(), direct.Threshold());
    EXPECT_EQ(s.SampleSize(), direct.SampleSize());
    EXPECT_EQ(s.Cost().coin_flips, direct.Cost().coin_flips);
    return 0;
  });
}

TEST(ShardedSynopsisTest, DrainEmptiesEveryShardIntoTheTarget) {
  auto sharded = MakeConciseShards(4, 4096, 90);
  const std::vector<Value> data = ZipfValues(8000, 300, 1.0, 91);
  for (Value v : data) sharded.Insert(v);

  ConciseSample epoch = MakeEpoch(4, 4096, 90);
  ASSERT_TRUE(sharded.DrainInto(epoch).ok());
  EXPECT_EQ(epoch.ObservedInserts(), 8000);
  EXPECT_EQ(epoch.SampleSize(), 8000);  // τ stays 1 under bound 4096
  EXPECT_EQ(sharded.ObservedInserts(), 0);
  EXPECT_EQ(sharded.Footprint(), 0);

  // Nothing arrived since: a second drain leaves the epoch as it was.
  const std::vector<ValueCount> before = SortedEntries(epoch);
  ASSERT_TRUE(sharded.DrainInto(epoch).ok());
  EXPECT_EQ(SortedEntries(epoch), before);
  EXPECT_EQ(epoch.ObservedInserts(), 8000);
  EXPECT_TRUE(epoch.Validate().ok());
}

/// A drainable, mergeable probe that counts the merges it absorbs.
struct MergeProbe {
  std::int64_t observed = 0;
  int merges = 0;
  void Insert(Value) { ++observed; }
  std::int64_t ObservedInserts() const { return observed; }
  Status MergeFrom(const MergeProbe& other) {
    ++merges;
    observed += other.observed;
    return Status::OK();
  }
  MergeProbe Drain() { return MergeProbe{std::exchange(observed, 0), 0}; }
};

TEST(ShardedSynopsisTest, DrainSkipsShardsWithoutInserts) {
  ShardedSynopsis<MergeProbe> sharded(
      4, [](std::size_t) { return MergeProbe{}; });
  MergeProbe epoch;
  ASSERT_TRUE(sharded.DrainInto(epoch).ok());
  EXPECT_EQ(epoch.merges, 0);

  const std::vector<Value> batch(10, 7);
  sharded.InsertBatchToShard(2, batch);
  ASSERT_TRUE(sharded.DrainInto(epoch).ok());
  EXPECT_EQ(epoch.merges, 1);
  EXPECT_EQ(epoch.observed, 10);

  // Shard 2 was emptied by the drain, so it is skipped too.
  ASSERT_TRUE(sharded.DrainInto(epoch).ok());
  EXPECT_EQ(epoch.merges, 1);
}

TEST(ShardedSynopsisTest, DrainedEpochHoldsEveryPointBelowTheBound) {
  // Below the footprint bound a concise sample is an exact multiset, so an
  // epoch drained round after round must hold the exact counts of the
  // stream so far (round-robin InsertBatch fills one shard per round).
  auto sharded = MakeConciseShards(8, 8192, 100);
  ConciseSample epoch = MakeEpoch(8, 8192, 100);
  std::map<Value, Count> truth;
  for (int round = 0; round < 5; ++round) {
    const std::vector<Value> data =
        ZipfValues(2000, 400, 1.0, 101 + static_cast<std::uint64_t>(round));
    for (Value v : data) ++truth[v];
    sharded.InsertBatch(data);
    ASSERT_TRUE(sharded.DrainInto(epoch).ok());
    std::vector<ValueCount> expected;
    for (const auto& [value, count] : truth) {
      expected.push_back(ValueCount{value, count});
    }
    EXPECT_EQ(epoch.ObservedInserts(), 2000 * (round + 1));
    EXPECT_EQ(SortedEntries(epoch), expected) << "round " << round;
  }
}

}  // namespace
}  // namespace aqua
