// Epoch consistency of the {snapshot, view} pair under concurrency:
// readers pin EpochState shared_ptrs from a SnapshotCache while writers
// keep feeding the underlying ShardedSynopsis (drained into each new
// epoch) and reporting ops, so refreshes race reads the whole time.  The
// invariant: whatever epoch a reader lands on, the frozen view agrees with
// *its* snapshot (scalars and answers), and a pinned epoch never changes
// underneath the reader — even long after newer epochs were published.
// Assertions run via atomic violation counters (gtest EXPECTs are not
// thread-safe); the suite name keeps "SnapshotCache" so the
// ThreadSanitizer CI job picks it up, which is where the race-freedom
// teeth are.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/result.h"
#include "concurrency/sharded_synopsis.h"
#include "concurrency/snapshot_cache.h"
#include "core/concise_sample.h"
#include "hotlist/concise_hot_list.h"
#include "random/xoshiro256.h"
#include "registry/typed_handle.h"
#include "view/frozen_view.h"
#include "view/view_builders.h"
#include "workload/generators.h"

namespace aqua {
namespace {

ConciseSample MakeShard(std::size_t i) {
  ConciseSampleOptions options;
  options.footprint_bound = 512;
  std::uint64_t sm = 0xF007 ^ (0x9e3779b97f4a7c15ULL * (i + 1));
  options.seed = SplitMix64Next(sm);
  return ConciseSample(options);
}

using ConciseEpoch = EpochState<ConciseSample>;

/// Cache whose refresher drains the sharded synopsis into a running epoch
/// and freezes a view from a copy of it — the same shape
/// TypedSynopsisHandle builds.  The cache's refresh mutex serializes the
/// refresher, so the running epoch needs no lock of its own.
SnapshotCache<ConciseEpoch> MakeCache(ShardedSynopsis<ConciseSample>& sharded,
                                      std::int64_t max_stale_ops) {
  auto epoch =
      std::make_shared<ConciseSample>(MakeShard(sharded.num_shards()));
  return SnapshotCache<ConciseEpoch>(
      [&sharded, epoch]() -> Result<ConciseEpoch> {
        AQUA_RETURN_NOT_OK(sharded.DrainInto(*epoch));
        ConciseEpoch state{*epoch, std::nullopt, 0};
        state.view.emplace(BuildConciseViewSpec(state.snapshot));
        return state;
      },
      {.max_stale_ops = max_stale_ops,
       .max_stale_interval = std::chrono::hours(1)});
}

/// True when `state`'s view was frozen from `state`'s snapshot: every
/// frozen scalar re-derivable from the snapshot must agree.
bool ViewMatchesSnapshot(const ConciseEpoch& state) {
  if (!state.view.has_value()) return false;
  const FrozenView& view = *state.view;
  return view.sample_size() == state.snapshot.SampleSize() &&
         view.observed_inserts() == state.snapshot.ObservedInserts() &&
         view.entry_count() ==
             static_cast<std::int64_t>(state.snapshot.Entries().size());
}

TEST(SnapshotCacheViewStress, PinnedEpochStaysConsistentUnderIngest) {
  constexpr std::size_t kShards = 4;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kBatches = 150;
  constexpr std::size_t kBatch = 256;

  ShardedSynopsis<ConciseSample> sharded(
      kShards, [](std::size_t i) { return MakeShard(i); });
  SnapshotCache<ConciseEpoch> cache = MakeCache(sharded, /*max_stale_ops=*/512);

  std::atomic<bool> stop{false};
  std::atomic<int> get_failures{0};
  std::atomic<int> view_mismatches{0};
  std::atomic<int> pin_mutations{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&sharded, &cache, w] {
      const std::vector<Value> values = ZipfValues(
          kBatches * static_cast<std::int64_t>(kBatch), 5000, 1.0,
          0xBEE5 + static_cast<std::uint64_t>(w));
      const std::span<const Value> all(values);
      for (std::size_t i = 0; i < all.size(); i += kBatch) {
        sharded.InsertBatch(all.subspan(i, kBatch));
        cache.OnOps(static_cast<std::int64_t>(kBatch));
      }
    });
  }

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&cache, &stop, &get_failures, &view_mismatches,
                          &pin_mutations] {
      while (!stop.load(std::memory_order_acquire)) {
        const auto result = cache.Get();
        if (!result.ok()) {
          get_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const std::shared_ptr<const ConciseEpoch> state =
            result.ValueOrDie();
        if (!ViewMatchesSnapshot(*state)) {
          view_mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        // Hold the pin across a yield (refreshes keep landing meanwhile):
        // the epoch's frozen scalars must not move.
        const std::int64_t pinned_size = state->view->sample_size();
        const double pinned_f2 = state->view->MomentF(2);
        std::this_thread::yield();
        if (state->view->sample_size() != pinned_size ||
            state->view->MomentF(2) != pinned_f2 ||
            !ViewMatchesSnapshot(*state)) {
          pin_mutations.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(get_failures.load(), 0);
  EXPECT_EQ(view_mismatches.load(), 0);
  EXPECT_EQ(pin_mutations.load(), 0);
  EXPECT_GE(cache.epoch(), 1u);

  // Quiesced: one final refreshed epoch still satisfies the invariant.
  cache.OnOps(1 << 20);
  const auto final_state = cache.Get();
  ASSERT_TRUE(final_state.ok());
  EXPECT_TRUE(ViewMatchesSnapshot(*final_state.ValueOrDie()));
}

TEST(SnapshotCacheViewStress, ViewAnswersMatchDirectPathWithinEpoch) {
  constexpr std::size_t kShards = 2;
  constexpr int kBatches = 120;
  constexpr std::size_t kBatch = 256;

  ShardedSynopsis<ConciseSample> sharded(
      kShards, [](std::size_t i) { return MakeShard(i); });
  SnapshotCache<ConciseEpoch> cache = MakeCache(sharded, /*max_stale_ops=*/256);

  std::atomic<bool> stop{false};
  std::atomic<int> answer_mismatches{0};
  std::atomic<int> epochs_checked{0};

  std::thread writer([&sharded, &cache] {
    const std::vector<Value> values = ZipfValues(
        kBatches * static_cast<std::int64_t>(kBatch), 5000, 1.5, 0xFACADE);
    const std::span<const Value> all(values);
    for (std::size_t i = 0; i < all.size(); i += kBatch) {
      sharded.InsertBatch(all.subspan(i, kBatch));
      cache.OnOps(static_cast<std::int64_t>(kBatch));
    }
  });

  std::thread reader([&cache, &stop, &answer_mismatches, &epochs_checked] {
    HotListQuery query;
    query.k = 10;
    // On a single-core host the writer can finish before this thread is
    // first scheduled; keep going until at least one epoch was checked.
    while (!stop.load(std::memory_order_acquire) ||
           epochs_checked.load(std::memory_order_relaxed) == 0) {
      const auto result = cache.Get();
      if (!result.ok()) continue;
      const std::shared_ptr<const ConciseEpoch> state = result.ValueOrDie();
      // Within one pinned epoch, the O(k) view report and the O(m log m)
      // direct report over the same immutable snapshot must be identical
      // item for item — ingest racing in the background notwithstanding.
      const HotList from_view = state->view->HotListAnswer(query);
      const HotList direct = ConciseHotList(state->snapshot).Report(query);
      bool equal = from_view.size() == direct.size();
      for (std::size_t i = 0; equal && i < direct.size(); ++i) {
        equal = from_view[i].value == direct[i].value &&
                from_view[i].estimated_count == direct[i].estimated_count &&
                from_view[i].synopsis_count == direct[i].synopsis_count;
      }
      if (!equal) answer_mismatches.fetch_add(1, std::memory_order_relaxed);
      epochs_checked.fetch_add(1, std::memory_order_relaxed);
    }
  });

  writer.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(answer_mismatches.load(), 0);
  EXPECT_GT(epochs_checked.load(), 0);
}

}  // namespace
}  // namespace aqua
