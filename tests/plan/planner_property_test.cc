// Statistical and equivalence properties of the planner:
//
//  1. The achieved error bound reported with a planned COUNT(*) answer
//     (half-width relative to the relation — the §6 error metric) must
//     *cover* the true error at the requested confidence: across many
//     random range queries, |estimate - truth| <= achieved_error * n at
//     least ~confidence of the time.  Statistical, so it runs under the
//     seed-sweep budget (tests/property/seed_sweep.h).
//
//  2. An unbounded planned query must be BIT-IDENTICAL to what the
//     dedicated routes serve — the first valid handle's own pinned answer
//     — for every query kind, before and after a delete invalidates the
//     samples: same synopsis, same estimate doubles, same hot-list items.
//     Structural, so it holds on every seed with no failure budget.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "plan/planner.h"
#include "property/seed_sweep.h"
#include "random/random.h"
#include "registry/builtin.h"
#include "warehouse/engine.h"
#include "workload/generators.h"

namespace aqua {
namespace {

std::int64_t TrueCount(const std::vector<Value>& values,
                       const ValueRange& range) {
  std::int64_t count = 0;
  for (Value v : values) {
    if (v >= range.low && v <= range.high) ++count;
  }
  return count;
}

TEST(PlannerPropertyTest, AchievedErrorCoversTrueErrorAtConfidence) {
  RunSeedSweep([](std::uint64_t base_seed) {
    constexpr int kInserts = 20000;
    constexpr std::int64_t kDomain = 1000;
    constexpr int kQueries = 200;
    constexpr double kConfidence = 0.95;

    ApproximateAnswerEngine engine(EngineOptions{});
    const std::vector<Value> stream =
        UniformValues(kInserts, kDomain, base_seed);
    for (Value v : stream) {
      EXPECT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
    }
    const SynopsisRegistry& registry = engine.registry();

    Random rng(base_seed ^ 0xC07E12EDULL);
    int covered = 0;
    PlannedResponse response;
    for (int trial = 0; trial < kQueries; ++trial) {
      const std::int64_t low = rng.UniformInt(0, kDomain - 1);
      const std::int64_t width = rng.UniformInt(1, kDomain / 2);
      PlannedQuery query;
      query.kind = QueryKind::kCountWhere;
      query.range = ValueRange{low, low + width};
      query.bound.confidence = kConfidence;
      RunPlannedQueryInto(registry, query, &response);
      EXPECT_NE(response.method, "none");
      EXPECT_TRUE(std::isfinite(response.achieved_error));

      const double truth =
          static_cast<double>(TrueCount(stream, query.range));
      const double true_error =
          std::abs(response.estimate.value - truth) / kInserts;
      if (true_error <= response.achieved_error) ++covered;
    }
    // 0.95-confidence intervals from one shared sample are correlated
    // across queries, so the empirical coverage is noisier than an
    // independent binomial — the band is generous and the sweep budget
    // absorbs one unlucky stream.
    const double coverage = static_cast<double>(covered) / kQueries;
    return coverage >= 0.85;
  });
}

/// The answer the dedicated routes serve, computed without the planner:
/// the first valid candidate for the query's kind, pinned and asked
/// directly.
PlannedResponse FirstValidHandleAnswer(const SynopsisRegistry& registry,
                                       const PlannedQuery& query) {
  PlannedResponse answer;
  const QueryContext ctx{registry.observed_inserts()};
  PinnedAnswerSource pinned;
  for (const SynopsisHandle* handle : registry.HandlesFor(query.kind)) {
    if (!handle->valid()) continue;
    const AnswerSource* source = handle->PinInto(pinned);
    if (source == nullptr) break;
    answer.method = source->Method();
    const double confidence = query.bound.confidence;
    switch (query.kind) {
      case QueryKind::kHotList:
        source->HotListAnswerInto({.k = query.k, .beta = query.beta}, ctx,
                                  &answer.hotlist);
        break;
      case QueryKind::kFrequency:
        answer.estimate = source->FrequencyAnswer(query.value, ctx);
        break;
      case QueryKind::kCountWhere:
        answer.estimate =
            source->CountWhereRangeAnswer(query.range, confidence, ctx);
        break;
      case QueryKind::kDistinct:
        answer.estimate = source->DistinctAnswer(ctx);
        break;
      case QueryKind::kQuantile:
        answer.estimate = source->QuantileAnswer(query.q, confidence, ctx);
        break;
    }
    break;
  }
  return answer;
}

void ExpectBitIdentical(const PlannedResponse& planned,
                        const PlannedResponse& direct, const char* what) {
  EXPECT_EQ(planned.method, direct.method) << what;
  EXPECT_EQ(planned.estimate.value, direct.estimate.value) << what;
  EXPECT_EQ(planned.estimate.ci_low, direct.estimate.ci_low) << what;
  EXPECT_EQ(planned.estimate.ci_high, direct.estimate.ci_high) << what;
  EXPECT_EQ(planned.estimate.confidence, direct.estimate.confidence) << what;
  EXPECT_EQ(planned.estimate.sample_points, direct.estimate.sample_points)
      << what;
  ASSERT_EQ(planned.hotlist.size(), direct.hotlist.size()) << what;
  for (std::size_t i = 0; i < direct.hotlist.size(); ++i) {
    EXPECT_EQ(planned.hotlist[i].value, direct.hotlist[i].value) << i;
    EXPECT_EQ(planned.hotlist[i].estimated_count,
              direct.hotlist[i].estimated_count)
        << i;
    EXPECT_EQ(planned.hotlist[i].synopsis_count,
              direct.hotlist[i].synopsis_count)
        << i;
  }
}

TEST(PlannerPropertyTest, UnboundedPlannedQueryBitIdenticalToLegacyRoutes) {
  const std::vector<std::pair<PlannedQuery, const char*>> queries = {
      {{.kind = QueryKind::kHotList, .k = 10}, "hotlist"},
      {{.kind = QueryKind::kHotList, .k = 0, .beta = 1.5}, "hotlist beta"},
      {{.kind = QueryKind::kFrequency, .value = 1}, "frequency"},
      {{.kind = QueryKind::kCountWhere, .range = {10, 210}}, "count_where"},
      {{.kind = QueryKind::kDistinct}, "distinct"},
      {{.kind = QueryKind::kQuantile, .q = 0.9, .bound = {.confidence = 0.99}},
       "quantile"},
  };
  for (const std::uint64_t seed : kSweepSeeds) {
    ApproximateAnswerEngine engine(EngineOptions{});
    for (Value v : ZipfValues(25000, 400, 1.2, seed)) {
      ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
    }
    const SynopsisRegistry& registry = engine.registry();
    // Before and after a delete invalidates the concise and traditional
    // samples: the fallback must land where the accuracy order does.
    for (int round = 0; round < 2; ++round) {
      PlannedResponse planned;
      for (const auto& [query, what] : queries) {
        RunPlannedQueryInto(registry, query, &planned);
        ExpectBitIdentical(planned, FirstValidHandleAnswer(registry, query),
                           what);
      }
      ASSERT_TRUE(engine.Observe(StreamOp::Delete(1)).ok());
    }
  }
}

}  // namespace
}  // namespace aqua
