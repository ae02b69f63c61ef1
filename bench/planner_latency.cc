// Planner latency: what planning adds on top of pinning a synopsis and
// computing its answer, broken into its stages — SQL parse +
// canonical-key append (the cacheable-GET fast path runs both per
// request), PlanQuery scoring, and the full plan-pin-compute-record loop —
// plus the behavioral payoff: once the latency EWMAs are warm,
// deadline-bounded queries switch to a faster option and the met-deadline
// rate recovers.
//
// Usage: planner_latency [--json <path>] [--smoke]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "plan/planner.h"
#include "plan/sql_frontend.h"
#include "warehouse/engine.h"
#include "workload/generators.h"

namespace aqua {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times `fn()` per iteration; returns percentiles + throughput.
template <typename Fn>
bench::LatencySummary TimeLoop(int iterations, const Fn& fn) {
  std::vector<std::int64_t> samples;
  samples.reserve(static_cast<std::size_t>(iterations));
  const std::int64_t start = NowNs();
  for (int i = 0; i < iterations; ++i) {
    const std::int64_t t0 = NowNs();
    fn(i);
    samples.push_back(NowNs() - t0);
  }
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  return bench::Summarize(std::move(samples), elapsed_s);
}

constexpr const char* kBoundedStatement =
    "SELECT APPROX(COUNT(*)) FROM stream WHERE v BETWEEN 100 AND 900 "
    "ERROR 2% CONFIDENCE 95% WITHIN 1ms";

struct KindCase {
  const char* name;
  PlannedQuery query;
};

std::vector<KindCase> KindCases() {
  std::vector<KindCase> cases;
  PlannedQuery q;
  q.kind = QueryKind::kHotList;
  q.k = 10;
  cases.push_back({"hotlist", q});
  q = PlannedQuery{};
  q.kind = QueryKind::kFrequency;
  q.value = 1;
  cases.push_back({"frequency", q});
  q = PlannedQuery{};
  q.kind = QueryKind::kCountWhere;
  q.range = ValueRange{100, 900};
  cases.push_back({"count_where", q});
  q = PlannedQuery{};
  q.kind = QueryKind::kDistinct;
  cases.push_back({"distinct", q});
  q = PlannedQuery{};
  q.kind = QueryKind::kQuantile;
  q.q = 0.5;
  cases.push_back({"quantile", q});
  return cases;
}

}  // namespace
}  // namespace aqua

int main(int argc, char** argv) {
  using namespace aqua;
  bench::ApplySmoke(argc, argv);
  bench::BenchReport report("planner_latency");

  const std::int64_t inserts = bench::SmokeCap(200000);
  const int queries = bench::SmokeMode() ? 2000 : 20000;

  ApproximateAnswerEngine engine(EngineOptions{});
  for (Value v : ZipfValues(inserts, 2000, 1.2, bench::kSeed)) {
    if (!engine.Observe(StreamOp::Insert(v)).ok()) return 1;
  }
  const SynopsisRegistry& registry = engine.registry();
  const QueryContext ctx{registry.observed_inserts()};
  // Publish every synopsis's epoch: predictions and view options read the
  // published epoch, so bounded plans score the stream just ingested.
  registry.SettleCaches();

  bench::PrintHeader("planner_latency");

  // Stage 1: SQL parse + canonical key — the per-request frontend cost.
  {
    std::string key;
    key.reserve(128);
    ParsedSqlQuery parsed;
    const auto summary = TimeLoop(queries, [&](int) {
      if (!ParseSqlQuery(kBoundedStatement, &parsed).ok()) std::abort();
      key.clear();
      AppendCanonicalSqlKey(parsed, &key);
    });
    std::printf("parse+canonical      p50 %8.0f ns   p99 %8.0f ns\n",
                summary.p50_ns, summary.p99_ns);
    std::vector<std::pair<std::string, double>> metrics;
    bench::AppendSummaryMetrics("", summary, &metrics);
    report.Add("parse_canonical", std::move(metrics));
  }

  // Stage 2: PlanQuery scoring per kind (bounded, so every option is
  // scored rather than short-circuiting on the first candidate).
  QueryBound scored_bound;
  scored_bound.max_error = 0.05;
  scored_bound.deadline_ns = 1000000;
  for (const auto& kind_case : KindCases()) {
    const auto summary = TimeLoop(queries, [&](int) {
      const PlanChoice plan =
          PlanQuery(registry, kind_case.query.kind, scored_bound, ctx);
      if (plan.handle == nullptr && plan.predicted_ns < 0) std::abort();
    });
    std::printf("plan %-15s p50 %8.0f ns   p99 %8.0f ns\n", kind_case.name,
                summary.p50_ns, summary.p99_ns);
    std::vector<std::pair<std::string, double>> metrics;
    bench::AppendSummaryMetrics("", summary, &metrics);
    report.Add(std::string("plan_") + kind_case.name, std::move(metrics));
  }

  // Stage 3: the full planned path per kind versus pinning the accuracy
  // order's first handle and computing the answer directly, with no
  // planning — the planner's end-to-end overhead.
  PlannedResponse response;
  for (const auto& kind_case : KindCases()) {
    const auto planned = TimeLoop(queries, [&](int) {
      RunPlannedQueryInto(registry, kind_case.query, &response);
    });
    std::vector<std::pair<std::string, double>> metrics;
    bench::AppendSummaryMetrics("", planned, &metrics);
    if (kind_case.query.kind == QueryKind::kCountWhere) {
      const SynopsisHandle* first =
          registry.HandlesFor(QueryKind::kCountWhere).front();
      PinnedAnswerSource pinned;
      const auto direct = TimeLoop(queries, [&](int) {
        const AnswerSource* source = first->PinInto(pinned);
        if (source == nullptr) std::abort();
        (void)source->CountWhereRangeAnswer(kind_case.query.range, 0.95, ctx);
      });
      metrics.emplace_back("direct_p50_ns", direct.p50_ns);
      metrics.emplace_back("overhead_p50_ns", planned.p50_ns - direct.p50_ns);
      std::printf("planned %-12s p50 %8.0f ns   direct p50 %8.0f ns\n",
                  kind_case.name, planned.p50_ns, direct.p50_ns);
    } else {
      std::printf("planned %-12s p50 %8.0f ns   p99 %8.0f ns\n",
                  kind_case.name, planned.p50_ns, planned.p99_ns);
    }
    report.Add(std::string("planned_") + kind_case.name, std::move(metrics));
  }

  // Stage 4: deadline adaptation.  The latency profiles are warm from
  // stage 3, so a deadline between the fast and slow options' EWMAs must
  // steer selection to a feasible option and keep the met-deadline rate
  // high; report the rate so a regression in profile feeding shows up as
  // a number, not a vibe.
  {
    PlannedQuery bounded;
    bounded.kind = QueryKind::kCountWhere;
    bounded.range = ValueRange{100, 900};
    bounded.bound.max_error = 0.05;
    bounded.bound.deadline_ns = 5000000;  // 5ms: generous on warm paths
    int met_error = 0;
    int met_deadline = 0;
    const auto summary = TimeLoop(queries, [&](int) {
      RunPlannedQueryInto(registry, bounded, &response);
      met_error += response.met_error ? 1 : 0;
      met_deadline += response.met_deadline ? 1 : 0;
    });
    std::printf(
        "bounded count_where  p50 %8.0f ns   met_error %5.1f%%   "
        "met_deadline %5.1f%%\n",
        summary.p50_ns, 100.0 * met_error / queries,
        100.0 * met_deadline / queries);
    std::vector<std::pair<std::string, double>> metrics;
    bench::AppendSummaryMetrics("", summary, &metrics);
    metrics.emplace_back("met_error_rate",
                         static_cast<double>(met_error) / queries);
    metrics.emplace_back("met_deadline_rate",
                         static_cast<double>(met_deadline) / queries);
    report.Add("bounded_count_where", std::move(metrics));
  }

  return report.WriteJson(bench::BenchReport::JsonPathFromArgs(argc, argv))
             ? 0
             : 1;
}
