// Query latency: the direct per-query answer paths versus the epoch-frozen
// view (src/view/) built once per snapshot.  The direct paths pay per
// query what the view pays once at freeze: hot lists re-sort every entry,
// count_where and quantile expand the concise sample into a point sample
// and scan/sort it.  The view answers the same queries — bit-identically
// (tests/view/view_equivalence_property_test.cc) — in O(k) or O(log m).
//
// Sweeps the synopsis footprint m over {1K, 10K, 100K} words for four
// query kinds.  Also times SnapshotCache::Get() on the pure hit path with
// an EpochState payload, i.e. the cost a cached query pays before any
// answer computation (acceptance: p50 no worse than the pre-view cache).
//
// Usage: query_latency [--json <path>] [--smoke]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "concurrency/snapshot_cache.h"
#include "core/concise_sample.h"
#include "estimate/aggregates.h"
#include "estimate/frequency_estimator.h"
#include "estimate/quantiles.h"
#include "hotlist/concise_hot_list.h"
#include "registry/typed_handle.h"
#include "sample/capabilities.h"
#include "view/frozen_view.h"
#include "view/view_builders.h"
#include "workload/generators.h"

namespace aqua {
namespace {

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

/// Times `fn()` once per query and returns the latency percentiles.
template <typename Fn>
LatencySummary TimeQueries(int queries, const Fn& fn) {
  std::vector<std::int64_t> ns;
  ns.reserve(static_cast<std::size_t>(queries));
  for (int i = 0; i < queries; ++i) {
    const std::int64_t start = NowNs();
    fn(i);
    ns.push_back(NowNs() - start);
  }
  return Summarize(ns);
}

struct KindResult {
  const char* kind;
  LatencySummary direct;
  LatencySummary view;
};

int Main(int argc, char** argv) {
  const bool smoke = bench::ApplySmoke(argc, argv);
  const std::string json_path =
      bench::BenchReport::JsonPathFromArgs(argc, argv);
  bench::BenchReport report("query_latency");
  const int queries = smoke ? 30 : 300;

  bench::PrintHeader(
      "Query latency: direct per-query path vs epoch-frozen view "
      "(concise sample, zipf 1.0)");
  std::printf("%-8s %-12s %14s %14s %14s %14s %10s\n", "m", "kind",
              "direct p50 ns", "direct p99 ns", "view p50 ns", "view p99 ns",
              "p50 ratio");

  for (std::int64_t m : {std::int64_t{1000}, std::int64_t{10000},
                         std::int64_t{100000}}) {
    m = bench::SmokeCap(m);
    const std::int64_t n = 10 * m;
    const std::int64_t domain = 5 * m;
    std::string row_prefix = "m";
    row_prefix.append(std::to_string(m)).push_back('/');
    const std::vector<Value> stream =
        ZipfValues(n, domain, 1.0, bench::TrialSeed(4100, 0));

    ConciseSampleOptions options;
    options.footprint_bound = m;
    options.seed = bench::kSeed;
    ConciseSample sample(options);
    for (Value v : stream) sample.Insert(v);

    QueryContext ctx;
    ctx.observed_inserts = n;

    // Freeze once — the per-epoch cost the view amortizes over every query
    // in the staleness window.
    const std::int64_t freeze_start = NowNs();
    const FrozenView view(BuildConciseViewSpec(sample));
    const std::int64_t freeze_ns = NowNs() - freeze_start;

    HotListQuery hot_query;
    hot_query.k = 10;
    hot_query.beta = bench::kBeta;
    const ValueRange range{domain / 4, domain / 2};

    std::vector<KindResult> kinds;

    KindResult hotlist{"hotlist", {}, {}};
    hotlist.direct = TimeQueries(queries, [&](int) {
      const HotList answer = ConciseHotList(sample).Report(hot_query);
      if (answer.size() > 1u << 20) std::fprintf(stderr, "?\n");
    });
    hotlist.view = TimeQueries(queries, [&](int) {
      const HotList answer = view.HotListAnswer(hot_query);
      if (answer.size() > 1u << 20) std::fprintf(stderr, "?\n");
    });
    kinds.push_back(hotlist);

    KindResult frequency{"frequency", {}, {}};
    frequency.direct = TimeQueries(queries, [&](int i) {
      const Value v = stream[static_cast<std::size_t>(i) % stream.size()];
      const Estimate e = FrequencyEstimator::FromConcise(sample, v);
      if (e.sample_points < 0) std::fprintf(stderr, "?\n");
    });
    frequency.view = TimeQueries(queries, [&](int i) {
      const Value v = stream[static_cast<std::size_t>(i) % stream.size()];
      const Estimate e = view.FrequencyAnswer(v);
      if (e.sample_points < 0) std::fprintf(stderr, "?\n");
    });
    kinds.push_back(frequency);

    KindResult count_where{"count_where", {}, {}};
    count_where.direct = TimeQueries(queries, [&](int) {
      SampleEstimator estimator(sample.ToPointSample(),
                                ctx.observed_inserts);
      const Estimate e = estimator.CountWhere(range.AsPredicate(), 0.95);
      if (e.sample_points < 0) std::fprintf(stderr, "?\n");
    });
    count_where.view = TimeQueries(queries, [&](int) {
      const Estimate e = view.CountWhereRangeAnswer(range, 0.95, ctx);
      if (e.sample_points < 0) std::fprintf(stderr, "?\n");
    });
    kinds.push_back(count_where);

    KindResult quantile{"quantile", {}, {}};
    quantile.direct = TimeQueries(queries, [&](int) {
      const Estimate e = QuantileEstimator(sample.ToPointSample())
                             .QuantileWithBounds(0.5, 0.95);
      if (e.sample_points < 0) std::fprintf(stderr, "?\n");
    });
    quantile.view = TimeQueries(queries, [&](int) {
      const Estimate e = view.QuantileAnswer(0.5, 0.95);
      if (e.sample_points < 0) std::fprintf(stderr, "?\n");
    });
    kinds.push_back(quantile);

    for (const KindResult& k : kinds) {
      const double ratio =
          k.view.p50_ns > 0.0 ? k.direct.p50_ns / k.view.p50_ns : 0.0;
      std::printf("%-8lld %-12s %14.0f %14.0f %14.0f %14.0f %9.1fx\n",
                  static_cast<long long>(m), k.kind, k.direct.p50_ns,
                  k.direct.p99_ns, k.view.p50_ns, k.view.p99_ns, ratio);
      report.Add(row_prefix + k.kind,
                 {{"direct_p50_ns", k.direct.p50_ns},
                  {"direct_p99_ns", k.direct.p99_ns},
                  {"view_p50_ns", k.view.p50_ns},
                  {"view_p99_ns", k.view.p99_ns},
                  {"speedup_p50", ratio}});
    }
    std::printf("%-8lld %-12s view build (freeze): %lld ns, %lld entries, "
                "sample size %lld\n",
                static_cast<long long>(m), "-",
                static_cast<long long>(freeze_ns),
                static_cast<long long>(view.entry_count()),
                static_cast<long long>(view.sample_size()));
    report.Add(row_prefix + "freeze",
               {{"build_ns", static_cast<double>(freeze_ns)},
                {"entries", static_cast<double>(view.entry_count())}});

    // Cached-Get() hit path with the {snapshot, view} epoch payload: the
    // fixed cost every cached query pays before its answer computation.
    SnapshotCache<EpochState<ConciseSample>> cache(
        [&sample]() -> Result<EpochState<ConciseSample>> {
          EpochState<ConciseSample> state{sample, std::nullopt, 0};
          state.view.emplace(BuildConciseViewSpec(state.snapshot));
          return state;
        },
        {.max_stale_ops = 8192,
         .max_stale_interval = std::chrono::hours(1)});
    (void)cache.Get();  // warm the first epoch outside the timed loop
    const LatencySummary get = TimeQueries(queries, [&](int) {
      const auto state = cache.Get().ValueOrDie();
      if (state->view_build_ns < 0) std::fprintf(stderr, "?\n");
    });
    std::printf("%-8lld %-12s cached Get() p50 %0.f ns, p99 %0.f ns\n",
                static_cast<long long>(m), "-", get.p50_ns, get.p99_ns);
    report.Add(row_prefix + "cached_get",
               {{"p50_ns", get.p50_ns}, {"p99_ns", get.p99_ns}});
  }

  std::printf(
      "\n(direct re-sorts entries / expands the point sample per query; "
      "the view pays that once per epoch at freeze)\n");
  if (!report.WriteJson(json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace aqua

int main(int argc, char** argv) { return aqua::Main(argc, argv); }
