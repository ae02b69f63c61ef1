// Serving-path latency: SnapshotCache::Get() (a pointer load of the current
// epoch, which a refresher builds by draining the shards into it) followed
// by a hot-list answer computation over the snapshot, and the full planned
// hot-list path on a ServingEngine (plan + cache + counting sample +
// answer).  The refresh cost is paid once per staleness window, off this
// path; bench/epoch_refresh measures it.
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
      });
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

  // The epoch-cached snapshot (no ingest during the run, so every Get()
  // after the first is a pointer load; this isolates the cache-hit cost the
  // staleness bound buys on the serving path).  The refresher drains the
  // shards into a running epoch and publishes a copy of it.
  ConciseSampleOptions epoch_options;
  epoch_options.footprint_bound = kFootprint;
  ConciseSample epoch(epoch_options);
  SnapshotCache<ConciseSample> cache(
      [&sharded, &epoch]() -> Result<ConciseSample> {
        AQUA_RETURN_NOT_OK(sharded.DrainInto(epoch));
        return epoch;
      },
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

  // The full serving engine (counting + concise caches, the same
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

  bench::PrintHeader("Serving latency: epoch cache and planned hot list");
  std::printf("%-28s %12s %12s\n", "path", "p50 (ns)", "p99 (ns)");
  std::printf("%-28s %12.0f %12.0f\n", "SnapshotCache::Get()",
              cached.p50_ns, cached.p99_ns);
  std::printf("%-28s %12.0f %12.0f\n", "ServingEngine hot list",
              serving.p50_ns, serving.p99_ns);
  std::printf("\n(%zu shards, %lld preloaded)\n", kShards,
              static_cast<long long>(preload));

  report.Add("snapshot_cache",
             {{"p50_ns", cached.p50_ns}, {"p99_ns", cached.p99_ns}});
  report.Add("serving_engine_hotlist",
             {{"p50_ns", serving.p50_ns}, {"p99_ns", serving.p99_ns}});
  report.WriteJson(json_path);
  return 0;
}

}  // namespace
}  // namespace aqua

int main(int argc, char** argv) { return aqua::Main(argc, argv); }
