// Planner selection tests: unbounded plans must reproduce the
// accuracy-ordered selection exactly (the §6 ordering the dedicated routes
// serve: the first candidate that pins), error bounds must pick the
// cheapest feasible synopsis off the live cost/error model, and deadlines
// must select against the *measured* per-kind latency profiles — driven
// here synthetically via RecordLatency so the test controls what the
// planner believes each option costs.

#include "plan/planner.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "registry/builtin.h"
#include "warehouse/engine.h"
#include "workload/generators.h"

namespace aqua {
namespace {

/// A distinct-count synopsis with a *fixed* declared error: the planner
/// sees exactly the number the test chose, so feasibility cuts are exact.
struct FixedErrorDistinct {
  std::set<Value> values;
  void Insert(Value v) { values.insert(v); }
  Words Footprint() const { return static_cast<Words>(values.size()); }
};

SynopsisDescriptor<FixedErrorDistinct> FixedErrorDescriptor(
    std::string name, int accuracy, double error) {
  SynopsisDescriptor<FixedErrorDistinct> d;
  d.name = std::move(name);
  d.on_delete = DeleteBehavior::kIgnores;
  d.Declare(QueryKind::kDistinct, accuracy,
            [error](const FixedErrorDistinct&, const QueryContext&, double) {
              return error;
            });
  d.factory = [](std::uint64_t) { return FixedErrorDistinct{}; };
  d.answers.distinct = [](const FixedErrorDistinct& s, const QueryContext&) {
    Estimate e;
    e.value = static_cast<double>(s.values.size());
    e.ci_low = e.value;
    e.ci_high = e.value;
    e.confidence = 1.0;
    return e;
  };
  return d;
}

/// Two-synopsis registry for kDistinct: "fine" is the most accurate
/// (accuracy class 0, predicted error 0.001), "coarse" the fallback
/// (class 20, predicted error 0.1).  Latency profiles start empty.
struct TwoSynopsisFixture {
  SynopsisRegistry registry{SynopsisRegistry::Options{}};
  const SynopsisHandle* fine = nullptr;
  const SynopsisHandle* coarse = nullptr;

  TwoSynopsisFixture() {
    EXPECT_TRUE(
        registry.Register(FixedErrorDescriptor("fine", 0, 0.001)).ok());
    EXPECT_TRUE(
        registry.Register(FixedErrorDescriptor("coarse", 20, 0.1)).ok());
    for (Value v = 0; v < 100; ++v) {
      EXPECT_TRUE(registry.Observe(StreamOp::Insert(v)).ok());
    }
    // Predictions read the published epoch: publish one.
    registry.SettleCaches();
    fine = registry.handle("fine");
    coarse = registry.handle("coarse");
  }

  QueryContext ctx() const {
    return QueryContext{registry.observed_inserts()};
  }
};

/// The accuracy-ordered selection, computed without the planner: the first
/// candidate for `kind` that pins.
std::string_view FirstPinnable(const SynopsisRegistry& registry,
                               QueryKind kind) {
  PinnedAnswerSource pinned;
  for (const SynopsisHandle* handle : registry.HandlesFor(kind)) {
    if (handle->PinInto(pinned) != nullptr) return handle->Name();
  }
  return "none";
}

/// The synopsis an executed unbounded plan answered from.
std::string_view AnsweredBy(const SynopsisRegistry& registry,
                            QueryKind kind) {
  PlannedResponse response;
  RunPlannedQueryInto(registry, {.kind = kind}, &response);
  return response.method;
}

TEST(PlannerTest, UnboundedPlanMatchesLegacySelection) {
  TwoSynopsisFixture f;
  // No bounds: first valid candidate in accuracy order — the selection the
  // dedicated routes have always made, regardless of any recorded
  // latencies.
  f.coarse->RecordLatency(QueryKind::kDistinct, false, 10);
  f.fine->RecordLatency(QueryKind::kDistinct, false, 1000000);
  const PlanChoice plan =
      PlanQuery(f.registry, QueryKind::kDistinct, QueryBound{}, f.ctx());
  ASSERT_NE(plan.handle, nullptr);
  EXPECT_EQ(plan.handle->Name(), "fine");
  EXPECT_TRUE(plan.meets_error);
  EXPECT_TRUE(plan.meets_deadline);
  EXPECT_EQ(plan.handle->Name(),
            FirstPinnable(f.registry, QueryKind::kDistinct));
  EXPECT_EQ(plan.handle->Name(),
            AnsweredBy(f.registry, QueryKind::kDistinct));
}

TEST(PlannerTest, UnboundedPlanMatchesLegacyOnEveryBuiltinKind) {
  ApproximateAnswerEngine engine(EngineOptions{});
  for (Value v : ZipfValues(20000, 500, 1.2, 23)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  }
  const SynopsisRegistry& registry = engine.registry();
  const QueryContext ctx{registry.observed_inserts()};
  const auto planned_method = [&](QueryKind kind) -> std::string_view {
    const PlanChoice plan = PlanQuery(registry, kind, QueryBound{}, ctx);
    return plan.handle == nullptr ? std::string_view("none")
                                  : plan.handle->Name();
  };
  for (int kind = 0; kind < kNumQueryKinds; ++kind) {
    const QueryKind k = static_cast<QueryKind>(kind);
    EXPECT_EQ(planned_method(k), FirstPinnable(registry, k)) << kind;
    EXPECT_EQ(planned_method(k), AnsweredBy(registry, k)) << kind;
  }

  // Invalidate the concise sample (a delete) and the planner must fall
  // back exactly where the accuracy order falls back.
  ASSERT_TRUE(engine.Observe(StreamOp::Delete(1)).ok());
  for (const QueryKind k : {QueryKind::kCountWhere, QueryKind::kQuantile}) {
    EXPECT_EQ(planned_method(k), FirstPinnable(registry, k));
    EXPECT_EQ(planned_method(k), AnsweredBy(registry, k));
  }
}

TEST(PlannerTest, ErrorBoundPicksCheapestFeasibleSynopsis) {
  TwoSynopsisFixture f;
  // Measured costs: the accurate synopsis is 10000x slower.
  f.fine->RecordLatency(QueryKind::kDistinct, false, 1000000);
  f.coarse->RecordLatency(QueryKind::kDistinct, false, 100);

  // Loose bound (0.5): both feasible, the cheap one wins.
  QueryBound loose;
  loose.max_error = 0.5;
  PlanChoice plan =
      PlanQuery(f.registry, QueryKind::kDistinct, loose, f.ctx());
  EXPECT_EQ(plan.handle->Name(), "coarse");
  EXPECT_TRUE(plan.meets_error);
  EXPECT_DOUBLE_EQ(plan.predicted_error, 0.1);

  // Tight bound (0.05): only the accurate synopsis fits, cost be damned.
  QueryBound tight;
  tight.max_error = 0.05;
  plan = PlanQuery(f.registry, QueryKind::kDistinct, tight, f.ctx());
  EXPECT_EQ(plan.handle->Name(), "fine");
  EXPECT_TRUE(plan.meets_error);

  // Impossible bound (1e-6): nothing fits — degrade to the most accurate
  // option and say so.
  QueryBound impossible;
  impossible.max_error = 1e-6;
  plan = PlanQuery(f.registry, QueryKind::kDistinct, impossible, f.ctx());
  EXPECT_EQ(plan.handle->Name(), "fine");
  EXPECT_FALSE(plan.meets_error);
}

TEST(PlannerTest, DeadlineSelectsAgainstMeasuredProfiles) {
  TwoSynopsisFixture f;
  f.fine->RecordLatency(QueryKind::kDistinct, false, 1000000);
  f.coarse->RecordLatency(QueryKind::kDistinct, false, 100);

  // A deadline the accurate synopsis blows: the fast one serves, within
  // bound.
  QueryBound fast;
  fast.deadline_ns = 10000;
  PlanChoice plan =
      PlanQuery(f.registry, QueryKind::kDistinct, fast, f.ctx());
  EXPECT_EQ(plan.handle->Name(), "coarse");
  EXPECT_TRUE(plan.meets_deadline);
  EXPECT_DOUBLE_EQ(plan.predicted_ns, 100.0);

  // A generous deadline: accuracy order reasserts itself.
  QueryBound slow;
  slow.deadline_ns = 10000000;
  plan = PlanQuery(f.registry, QueryKind::kDistinct, slow, f.ctx());
  EXPECT_EQ(plan.handle->Name(), "fine");
  EXPECT_TRUE(plan.meets_deadline);

  // A deadline nothing meets: fastest option, flagged.
  QueryBound harsh;
  harsh.deadline_ns = 10;
  plan = PlanQuery(f.registry, QueryKind::kDistinct, harsh, f.ctx());
  EXPECT_EQ(plan.handle->Name(), "coarse");
  EXPECT_FALSE(plan.meets_deadline);

  // Error bound + deadline: the error bound narrows the pool first.  Only
  // "fine" satisfies 0.05, and it cannot make the deadline — the planner
  // reports the honest degradation instead of silently switching synopses.
  QueryBound both;
  both.max_error = 0.05;
  both.deadline_ns = 10000;
  plan = PlanQuery(f.registry, QueryKind::kDistinct, both, f.ctx());
  EXPECT_EQ(plan.handle->Name(), "fine");
  EXPECT_TRUE(plan.meets_error);
  EXPECT_FALSE(plan.meets_deadline);
}

TEST(PlannerTest, RunPlannedQueryRecordsLatencyAndAchievedError) {
  ApproximateAnswerEngine engine(EngineOptions{});
  for (Value v : ZipfValues(20000, 300, 1.3, 7)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  }
  const SynopsisRegistry& registry = engine.registry();
  EXPECT_LT(registry.LastAchievedError(QueryKind::kCountWhere), 0.0);

  PlannedQuery query;
  query.kind = QueryKind::kCountWhere;
  query.range = ValueRange{0, 150};
  query.bound.max_error = 0.5;
  PlannedResponse response;
  RunPlannedQueryInto(registry, query, &response);

  // The measured half-width relative to the relation is the reported
  // bound, and it lands in the registry's planner stats.
  EXPECT_NE(response.method, "none");
  ASSERT_TRUE(std::isfinite(response.achieved_error));
  EXPECT_GT(response.achieved_error, 0.0);
  EXPECT_TRUE(response.met_error);
  EXPECT_GT(response.response_ns, 0);
  EXPECT_DOUBLE_EQ(registry.LastAchievedError(QueryKind::kCountWhere),
                   response.achieved_error);

  // The serving handle's latency profile saw the computation.
  const SynopsisHandle* served = nullptr;
  for (const SynopsisHandle* handle :
       registry.HandlesFor(QueryKind::kCountWhere)) {
    if (handle->Name() == response.method) served = handle;
  }
  ASSERT_NE(served, nullptr);
  EXPECT_GE(served->LatencyFor(QueryKind::kCountWhere).direct_observations,
            1);

  // A hot-list planned query fills the item vector, not the estimate.
  PlannedQuery top;
  top.kind = QueryKind::kHotList;
  top.k = 5;
  RunPlannedQueryInto(registry, top, &response);
  EXPECT_NE(response.method, "none");
  EXPECT_FALSE(response.hotlist.empty());
  EXPECT_LE(response.hotlist.size(), 5u);
}

}  // namespace
}  // namespace aqua
