// Serving-path latency: per-request ShardedSynopsis::Snapshot() (merge all
// shards on every query) versus SnapshotCache::Get() (atomic load of the
// current epoch's merged snapshot), both followed by the same hot-list
// answer computation over the snapshot — i.e. the two ways a serving layer
// could sit on top of the sharded ingest structure.  Also reports the full
// planned hot-list path on a ServingEngine (plan + cache + counting sample
// + answer).
//
// The per-request path pays one O(shards * footprint) merge per query; the
// cached path pays it once per staleness window, amortized across every
// query in the window.  The PR's acceptance bar: cached p50 at least 5x
// lower than per-request p50 at 8 shards.
//
// Usage: serving_latency [--json <path>]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "concurrency/sharded_synopsis.h"
#include "concurrency/snapshot_cache.h"
#include "core/concise_sample.h"
#include "hotlist/concise_hot_list.h"
#include "plan/planner.h"
#include "random/xoshiro256.h"
#include "server/serving_engine.h"
#include "workload/generators.h"

namespace aqua {
namespace {

constexpr std::size_t kShards = 8;
constexpr std::int64_t kPreload = 200000;
constexpr std::int64_t kDomain = 1000;
constexpr double kAlpha = 1.0;
constexpr Words kFootprint = 4096;
constexpr int kQueries = 2000;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct LatencySummary {
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

LatencySummary Summarize(std::vector<std::int64_t>& samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.p50_ns = static_cast<double>(samples[samples.size() / 2]);
  s.p99_ns = static_cast<double>(samples[samples.size() * 99 / 100]);
  return s;
}

int Main(int argc, char** argv) {
  const bool smoke = bench::ApplySmoke(argc, argv);
  const std::int64_t preload = smoke ? 2000 : kPreload;
  const int queries = smoke ? 200 : kQueries;
  const std::string json_path =
      bench::BenchReport::JsonPathFromArgs(argc, argv);
  bench::BenchReport report("serving_latency");

  ShardedSynopsis<ConciseSample> sharded(
      kShards,
      [](std::size_t i) {
        ConciseSampleOptions o;
        o.footprint_bound = kFootprint;
        std::uint64_t s = 0x19980531ULL + 0x9e3779b97f4a7c15ULL * (i + 1);
        o.seed = SplitMix64Next(s);
        return ConciseSample(o);
      },
      ShardRouting::kRoundRobin);
  const std::vector<Value> stream =
      ZipfValues(preload, kDomain, kAlpha, bench::kSeed);
  for (std::size_t off = 0; off < stream.size(); off += 1024) {
    const std::size_t len = std::min<std::size_t>(1024, stream.size() - off);
    sharded.InsertBatch(std::span<const Value>(stream.data() + off, len));
  }

  HotListQuery query;
  query.k = 10;

  auto answer_from = [&query](const ConciseSample& snapshot) {
    return ConciseHotList(snapshot).Report(query);
  };

  // Path A: per-request merge.
  std::vector<std::int64_t> merge_ns;
  merge_ns.reserve(queries);
  for (int i = 0; i < queries; ++i) {
    const std::int64_t start = NowNs();
    const ConciseSample snapshot = sharded.Snapshot().ValueOrDie();
    const HotList answer = answer_from(snapshot);
    merge_ns.push_back(NowNs() - start);
    if (answer.empty()) std::fprintf(stderr, "empty hot list?\n");
  }
  const LatencySummary merged = Summarize(merge_ns);

  // Path B: epoch-cached snapshot (no ingest during the run, so every Get()
  // after the first is a pointer load; this isolates the cache-hit cost the
  // staleness bound buys on the serving path).
  SnapshotCache<ConciseSample> cache(
      [&sharded] { return sharded.Snapshot(); },
      {.max_stale_ops = 8192,
       .max_stale_interval = std::chrono::seconds(3600)});
  (void)cache.Get();  // warm the first epoch outside the timed loop
  std::vector<std::int64_t> cached_ns;
  cached_ns.reserve(queries);
  for (int i = 0; i < queries; ++i) {
    const std::int64_t start = NowNs();
    const auto snapshot = cache.Get().ValueOrDie();
    const HotList answer = answer_from(*snapshot);
    cached_ns.push_back(NowNs() - start);
    if (answer.empty()) std::fprintf(stderr, "empty hot list?\n");
  }
  const LatencySummary cached = Summarize(cached_ns);

  // Path C: the full serving engine (counting + concise caches, the same
  // path aqua_serve's /hotlist handler takes).
  ServingEngineOptions engine_options;
  engine_options.shards = kShards;
  engine_options.footprint_bound = kFootprint;
  ServingEngine engine(engine_options);
  for (std::size_t off = 0; off < stream.size(); off += 1024) {
    const std::size_t len = std::min<std::size_t>(1024, stream.size() - off);
    engine.InsertBatch(std::span<const Value>(stream.data() + off, len));
  }
  const PlannedQuery planned_query = {.kind = QueryKind::kHotList,
                                      .k = query.k,
                                      .beta = query.beta};
  PlannedResponse response;
  // Warm both caches.
  RunPlannedQueryInto(engine.registry(), planned_query, &response);
  std::vector<std::int64_t> engine_ns;
  engine_ns.reserve(queries);
  for (int i = 0; i < queries; ++i) {
    RunPlannedQueryInto(engine.registry(), planned_query, &response);
    engine_ns.push_back(response.response_ns);
  }
  const LatencySummary serving = Summarize(engine_ns);

  const double speedup_p50 = merged.p50_ns / cached.p50_ns;
  const double speedup_p99 = merged.p99_ns / cached.p99_ns;

  bench::PrintHeader("Serving latency: per-request merge vs epoch cache");
  std::printf("%-28s %12s %12s\n", "path", "p50 (ns)", "p99 (ns)");
  std::printf("%-28s %12.0f %12.0f\n", "per-request Snapshot()",
              merged.p50_ns, merged.p99_ns);
  std::printf("%-28s %12.0f %12.0f\n", "SnapshotCache::Get()",
              cached.p50_ns, cached.p99_ns);
  std::printf("%-28s %12.0f %12.0f\n", "ServingEngine::HotListAnswer",
              serving.p50_ns, serving.p99_ns);
  std::printf("\ncached-vs-merge speedup: p50 %.1fx, p99 %.1fx "
              "(%zu shards, %lld preloaded)\n",
              speedup_p50, speedup_p99, kShards,
              static_cast<long long>(preload));

  report.Add("per_request_snapshot",
             {{"p50_ns", merged.p50_ns}, {"p99_ns", merged.p99_ns}});
  report.Add("snapshot_cache",
             {{"p50_ns", cached.p50_ns}, {"p99_ns", cached.p99_ns}});
  report.Add("serving_engine_hotlist",
             {{"p50_ns", serving.p50_ns}, {"p99_ns", serving.p99_ns}});
  report.Add("speedup",
             {{"p50_x", speedup_p50}, {"p99_x", speedup_p99}});
  report.WriteJson(json_path);
  return 0;
}

}  // namespace
}  // namespace aqua

int main(int argc, char** argv) { return aqua::Main(argc, argv); }
