// Measures the incremental off-path epoch refresh machinery (BENCH_9):
//
//  1. Drain refresh cost — copy the previous epoch, drain 8 shards into
//     the copy — against the number of points that arrived since the last
//     drain, for a serving-sized concise sample (bound 4096 words after a
//     4M-value Zipf prefix).
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
#include <span>
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
// 1. Drain refresh cost against arrivals since the last drain.
// ---------------------------------------------------------------------------

void RunDrainSweep(BenchReport* report) {
  static constexpr std::size_t kShards = 8;
  static constexpr Words kBound = 4096;
  static constexpr std::int64_t kDomain = 100000;
  static constexpr std::size_t kPostValues = 4096;  // one ingest POST
  const int rounds = SmokeMode() ? 3 : 15;
  const auto make = [](std::size_t i) {
    ConciseSampleOptions o;
    o.footprint_bound = kBound;
    o.seed = kSeed + 7919ULL * (i + 1);
    return ConciseSample(o);
  };
  ShardedSynopsis<ConciseSample> sharded(kShards, make);
  const auto ingest = [&sharded](std::int64_t n, std::uint64_t seed) {
    const std::vector<Value> values = ZipfValues(n, kDomain, 1.0, seed);
    const std::span<const Value> all(values);
    for (std::size_t off = 0; off < all.size(); off += kPostValues) {
      sharded.InsertBatch(
          all.subspan(off, std::min(kPostValues, all.size() - off)));
    }
  };
  // The epoch a server holds after its preload: one drain of the prefix.
  ConciseSample epoch = make(kShards);
  ingest(SmokeCap(4000000), kSeed);
  if (!sharded.DrainInto(epoch).ok()) return;

  PrintHeader("drain refresh: copy the epoch, drain 8 shards into it");
  std::printf("%10s %10s %9s %12s %12s\n", "arrivals", "entries", "tau",
              "copy_ns", "refresh_ns");
  std::uint64_t seed = kSeed + 1;
  for (const std::int64_t arrivals :
       {std::int64_t{1024}, std::int64_t{4096}, std::int64_t{16384},
        std::int64_t{65536}, std::int64_t{262144}}) {
    // --smoke caps the stream; the row keeps its nominal name.
    const std::int64_t n = SmokeCap(arrivals);
    std::vector<std::int64_t> copy_ns;
    std::vector<std::int64_t> refresh_ns;
    for (int r = 0; r < rounds; ++r) {
      ingest(n, seed++);
      const std::int64_t t0 = NowNs();
      ConciseSample next = epoch;
      const std::int64_t t1 = NowNs();
      const Status status = sharded.DrainInto(next);
      const std::int64_t t2 = NowNs();
      if (!status.ok()) {
        std::fprintf(stderr, "DrainInto failed: %s\n",
                     status.message().c_str());
        return;
      }
      copy_ns.push_back(t1 - t0);
      refresh_ns.push_back(t2 - t0);
      epoch = std::move(next);
    }
    const double c_ns = MedianNs(copy_ns);
    const double f_ns = MedianNs(refresh_ns);
    const auto entries = static_cast<double>(epoch.DistinctValues());
    std::printf("%10lld %10.0f %9.1f %12.0f %12.0f\n",
                static_cast<long long>(n), entries, epoch.Threshold(),
                c_ns, f_ns);
    report->Add("drain_" + std::to_string(arrivals) + "_arrivals_8_shards",
                {{"arrivals", static_cast<double>(n)},
                 {"m_entries", entries},
                 {"threshold", epoch.Threshold()},
                 {"copy_ns", c_ns},
                 {"refresh_ns", f_ns}});
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
  aqua::bench::RunDrainSweep(&report);
  aqua::bench::RunViewSweep(&report);
  aqua::bench::RunBoundarySweep(&report);
  report.WriteJson(aqua::bench::BenchReport::JsonPathFromArgs(argc, argv));
  return 0;
}
