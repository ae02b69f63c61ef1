// Measures the incremental off-path epoch refresh machinery (BENCH_9):
//
//  1. Snapshot re-merge cost, full Snapshot() vs SnapshotDelta(), at a
//     merged sample of ~100K entries across dirty-shard fractions — the
//     headline claim is >=5x cheaper refresh at <=10% dirty shards.
//  2. Frozen-view build cost, full sort vs delta patch, across
//     entry-churn fractions.
//  3. Epoch-boundary query latency under concurrent ingest: inline
//     refresh (the first stale Get() pays the re-merge) vs the
//     background epoch pump (--refresh-mode pump), p50/p99/p999.
//
// Accepts --smoke (CI-sized runs) and --json <path> (BENCH_9.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "concurrency/sharded_synopsis.h"
#include "core/concise_sample.h"
#include "plan/planner.h"
#include "server/epoch_pump.h"
#include "server/serving_engine.h"
#include "view/frozen_view.h"
#include "workload/generators.h"

namespace aqua {
namespace bench {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double MedianNs(std::vector<std::int64_t> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return static_cast<double>(samples[mid]);
}

// ---------------------------------------------------------------------------
// 1. Full re-merge vs dirty-shard delta merge.
// ---------------------------------------------------------------------------

void RunMergeSweep(BenchReport* report) {
  const std::size_t shards = 16;
  // ~2 words per concise entry: this footprint puts the merged sample at
  // roughly 100K entries (smoke: a few thousand).
  const Words per_shard_bound = SmokeMode() ? Words{512} : Words{12500};
  const std::int64_t n = SmokeCap(2000000);
  const std::int64_t domain = 4 * n;

  ShardedSynopsis<ConciseSample> sharded(shards, [&](std::size_t i) {
    return ConciseSample(
        ConciseSampleOptions{.footprint_bound = per_shard_bound,
                             .seed = kSeed + 7919ULL * (i + 1)});
  });
  sharded.InsertBatch(ZipfValues(n, domain, 0.5, kSeed));

  const int rounds = SmokeMode() ? 3 : 15;
  std::mt19937_64 rng(kSeed);
  PrintHeader("snapshot re-merge: full vs dirty-shard delta");
  std::printf("%8s %10s %12s %12s %9s\n", "dirty", "delta", "delta_ns",
              "full_ns", "speedup");

  for (const std::size_t dirty : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8}, shards}) {
    // Steady-state protocol: the same `dirty` shards mutate every window,
    // so they never fold into the retained base while the cold shards do.
    const auto touch_hot_set = [&] {
      for (std::size_t i = 0; i < dirty; ++i) {
        sharded.WithShardMutable(i, [&rng](ConciseSample& s) {
          s.Insert(static_cast<Value>(rng() % 1000000));
          return 0;
        });
      }
    };
    ShardedSynopsis<ConciseSample>::DeltaState state;
    ShardedDeltaStats stats;
    (void)sharded.SnapshotDelta(state, &stats);  // window 1: no base yet
    touch_hot_set();
    (void)sharded.SnapshotDelta(state, &stats);  // window 2: cold set folds

    std::vector<std::int64_t> delta_ns;
    std::vector<std::int64_t> full_ns;
    std::int64_t entries = 0;
    double delta_fraction = 1.0;
    for (int r = 0; r < rounds; ++r) {
      touch_hot_set();
      std::int64_t t0 = NowNs();
      auto delta = sharded.SnapshotDelta(state, &stats);
      delta_ns.push_back(NowNs() - t0);
      if (!delta.ok()) {
        std::fprintf(stderr, "SnapshotDelta failed: %s\n",
                     delta.status().message().c_str());
        return;
      }
      delta_fraction = stats.delta_fraction;
      entries = static_cast<std::int64_t>(delta->Entries().size());
      t0 = NowNs();
      auto full = sharded.Snapshot();
      full_ns.push_back(NowNs() - t0);
      if (!full.ok()) return;
    }
    const double d_ns = MedianNs(delta_ns);
    const double f_ns = MedianNs(full_ns);
    const double speedup = d_ns > 0 ? f_ns / d_ns : 0.0;
    std::printf("%5zu/%zu %9.3f%% %12.0f %12.0f %8.2fx\n", dirty, shards,
                100.0 * delta_fraction, d_ns, f_ns, speedup);
    report->Add(
        "merge_dirty_" + std::to_string(dirty) + "_of_" +
            std::to_string(shards),
        {{"m_entries", static_cast<double>(entries)},
         {"delta_fraction", delta_fraction},
         {"delta_ns", d_ns},
         {"full_ns", f_ns},
         {"speedup", speedup}});
  }
}

// ---------------------------------------------------------------------------
// 2. Frozen-view build: full sort vs delta patch.
// ---------------------------------------------------------------------------

FrozenView::Spec ViewSpec(std::vector<ValueCount> entries) {
  FrozenView::Spec spec;
  spec.sample_size = SampleSizeOf(entries);
  spec.entries = std::move(entries);
  spec.observed_inserts = spec.sample_size * 3;
  FrozenView::HotListParams hot;
  hot.scale = 3.0;
  hot.offset = 0.0;
  spec.hot_list = hot;
  spec.count_where = true;
  spec.quantile = true;
  const std::int64_t m = spec.sample_size;
  const std::int64_t n = spec.observed_inserts;
  spec.frequency = [m, n](Count c, double confidence) {
    Estimate e;
    e.value = m > 0 ? static_cast<double>(c) * n / m : 0.0;
    e.confidence = confidence;
    e.sample_points = c;
    return e;
  };
  return spec;
}

void RunViewSweep(BenchReport* report) {
  const std::int64_t m = SmokeCap(100000);
  const int rounds = SmokeMode() ? 3 : 15;
  PrintHeader("frozen-view build: full sort vs delta patch");
  std::printf("%8s %10s %12s %12s %9s\n", "churn", "entries", "patch_ns",
              "full_ns", "speedup");

  for (const double churn : {0.01, 0.05, 0.10, 0.25}) {
    std::mt19937_64 rng(kSeed + static_cast<std::uint64_t>(churn * 1000));
    std::vector<ValueCount> entries;
    entries.reserve(static_cast<std::size_t>(m));
    for (std::int64_t v = 1; v <= m; ++v) {
      entries.push_back({v, 1 + static_cast<Count>(rng() % 40)});
    }
    const auto touch = [&] {
      const auto d = static_cast<std::size_t>(
          std::max<double>(1.0, churn * static_cast<double>(m)));
      for (std::size_t i = 0; i < d; ++i) {
        entries[rng() % entries.size()].count += 1;
      }
      return d;
    };

    FrozenView::PatchScratch scratch;
    ViewPatchStats stats;
    FrozenView previous(ViewSpec(entries), FrozenView(ViewSpec({})), scratch,
                        &stats);
    std::vector<std::int64_t> patch_ns;
    std::vector<std::int64_t> full_ns;
    std::size_t delta_entries = 0;
    for (int r = 0; r < rounds; ++r) {
      delta_entries = touch();
      std::int64_t t0 = NowNs();
      FrozenView full(ViewSpec(entries));
      full_ns.push_back(NowNs() - t0);
      t0 = NowNs();
      FrozenView patched(ViewSpec(entries), previous, scratch, &stats);
      patch_ns.push_back(NowNs() - t0);
      previous = std::move(patched);
    }
    const double p_ns = MedianNs(patch_ns);
    const double f_ns = MedianNs(full_ns);
    const double speedup = p_ns > 0 ? f_ns / p_ns : 0.0;
    std::printf("%7.0f%% %10zu %12.0f %12.0f %8.2fx\n", churn * 100.0,
                delta_entries, p_ns, f_ns, speedup);
    report->Add("view_churn_" + std::to_string(static_cast<int>(
                                    churn * 100)) +
                    "pct",
                {{"entries", static_cast<double>(m)},
                 {"delta_entries", static_cast<double>(delta_entries)},
                 {"patched", stats.full_sort ? 0.0 : 1.0},
                 {"patch_ns", p_ns},
                 {"full_ns", f_ns},
                 {"speedup", speedup}});
  }
}

// ---------------------------------------------------------------------------
// 3. Epoch-boundary answer latency: inline refresh vs background pump.
// ---------------------------------------------------------------------------

void RunBoundarySweep(BenchReport* report) {
  PrintHeader("epoch-boundary answer latency under ingest churn");
  std::printf("%8s %10s %10s %10s %12s %8s\n", "mode", "p50_ns", "p99_ns",
              "p999_ns", "inline_refs", "epochs");

  for (const bool pump_mode : {false, true}) {
    ServingEngineOptions options;
    options.shards = 8;
    options.footprint_bound = 4096;
    options.cache_max_stale_ops = 4096;
    options.cache_max_stale_interval = std::chrono::milliseconds(5);
    options.external_refresh = pump_mode;
    ServingEngine engine(options);
    engine.InsertBatch(ZipfValues(SmokeCap(100000), 2000, 1.0, kSeed));
    engine.SettleCaches();

    EpochPump pump(
        EpochPumpOptions{.interval = std::chrono::milliseconds(2)});
    if (pump_mode) {
      pump.AddDomain(
          "stream", [&engine] { return engine.AnyCacheStale(); },
          [&engine] { engine.SettleCaches(); });
      pump.Start();
    }

    const auto duration =
        SmokeMode() ? std::chrono::milliseconds(250)
                    : std::chrono::milliseconds(1500);
    std::atomic<bool> done{false};
    std::thread ingest([&engine, &done] {
      std::uint64_t batch_seed = kSeed + 1;
      while (!done.load(std::memory_order_acquire)) {
        engine.InsertBatch(ZipfValues(1024, 2000, 1.0, batch_seed++));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });

    std::vector<std::int64_t> samples;
    samples.reserve(1 << 20);
    const PlannedQuery query = {.kind = QueryKind::kHotList, .k = 10};
    PlannedResponse response;
    const std::int64_t start = NowNs();
    const std::int64_t deadline =
        start + std::chrono::nanoseconds(duration).count();
    while (NowNs() < deadline) {
      const std::int64_t t0 = NowNs();
      RunPlannedQueryInto(engine.registry(), query, &response);
      samples.push_back(NowNs() - t0);
    }
    const double elapsed_s =
        static_cast<double>(NowNs() - start) / 1e9;
    done.store(true, std::memory_order_release);
    ingest.join();
    if (pump_mode) pump.Stop();

    std::int64_t inline_refreshes = 0;
    for (const SynopsisHandleStats& s : engine.GetStats().synopses) {
      inline_refreshes += s.cache.inline_refreshes;
    }
    const std::uint64_t epochs = engine.ServingEpoch();
    const LatencySummary summary = Summarize(std::move(samples), elapsed_s);
    const char* name = pump_mode ? "pump" : "inline";
    std::printf("%8s %10.0f %10.0f %10.0f %12lld %8llu\n", name,
                summary.p50_ns, summary.p99_ns, summary.p999_ns,
                static_cast<long long>(inline_refreshes),
                static_cast<unsigned long long>(epochs));
    std::vector<std::pair<std::string, double>> metrics;
    AppendSummaryMetrics("", summary, &metrics);
    metrics.emplace_back("inline_refreshes",
                         static_cast<double>(inline_refreshes));
    metrics.emplace_back("epochs", static_cast<double>(epochs));
    report->Add(std::string("epoch_boundary_") + name, std::move(metrics));
  }
}

}  // namespace
}  // namespace bench
}  // namespace aqua

int main(int argc, char** argv) {
  aqua::bench::ApplySmoke(argc, argv);
  aqua::bench::BenchReport report("epoch_refresh");
  aqua::bench::RunMergeSweep(&report);
  aqua::bench::RunViewSweep(&report);
  aqua::bench::RunBoundarySweep(&report);
  report.WriteJson(aqua::bench::BenchReport::JsonPathFromArgs(argc, argv));
  return 0;
}
