#include "warehouse/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "metrics/hotlist_accuracy.h"
#include "plan/planner.h"
#include "warehouse/relation.h"
#include "workload/generators.h"

namespace aqua {
namespace {

/// One unbounded plan on the engine's registry.
PlannedResponse Ask(const ApproximateAnswerEngine& engine,
                    const PlannedQuery& query) {
  PlannedResponse response;
  RunPlannedQueryInto(engine.registry(), query, &response);
  return response;
}

/// True when the named synopsis still serves: StateCopy refuses an
/// invalidated one.
bool Serves(const ApproximateAnswerEngine& engine, std::string_view name) {
  return engine.registry().handle(name)->valid();
}

/// A concise sample's entries in value order.
std::vector<ValueCount> SortedEntries(const ConciseSample& sample) {
  std::vector<ValueCount> entries = sample.Entries();
  std::sort(entries.begin(), entries.end(),
            [](const ValueCount& a, const ValueCount& b) {
              return a.value < b.value;
            });
  return entries;
}

EngineOptions AllOn(Words m, std::uint64_t seed) {
  EngineOptions o;
  o.footprint_bound = m;
  o.seed = seed;
  o.maintain_full_histogram = false;
  return o;
}

TEST(EngineTest, MaintainsConfiguredSynopses) {
  ApproximateAnswerEngine engine(AllOn(100, 1));
  const SynopsisRegistry& registry = engine.registry();
  EXPECT_TRUE(
      registry.StateCopy<ReservoirSample>(kTraditionalSynopsisName).ok());
  EXPECT_TRUE(registry.StateCopy<ConciseSample>(kConciseSynopsisName).ok());
  EXPECT_TRUE(registry.StateCopy<CountingSample>(kCountingSynopsisName).ok());
  EXPECT_TRUE(registry.StateCopy<FlajoletMartin>(kDistinctSketchName).ok());
  EXPECT_EQ(registry.handle(kFullHistogramName), nullptr);
  EXPECT_EQ(registry.StateCopy<FullHistogram>(kFullHistogramName)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, ObserveRoutesInserts) {
  ApproximateAnswerEngine engine(AllOn(100, 2));
  for (Value v : ZipfValues(10000, 100, 1.0, 3)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  }
  const SynopsisRegistry& registry = engine.registry();
  EXPECT_EQ(engine.observed_inserts(), 10000);
  EXPECT_EQ(registry.StateCopy<ReservoirSample>(kTraditionalSynopsisName)
                .ValueOrDie()
                .ObservedInserts(),
            10000);
  EXPECT_EQ(registry.StateCopy<ConciseSample>(kConciseSynopsisName)
                .ValueOrDie()
                .ObservedInserts(),
            10000);
  EXPECT_EQ(registry.StateCopy<CountingSample>(kCountingSynopsisName)
                .ValueOrDie()
                .ObservedInserts(),
            10000);
}

TEST(EngineTest, HotListPrefersCountingSample) {
  ApproximateAnswerEngine engine(AllOn(500, 4));
  for (Value v : ZipfValues(100000, 1000, 1.25, 5)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  }
  const auto response =
      Ask(engine, {.kind = QueryKind::kHotList, .k = 10, .beta = 3});
  EXPECT_EQ(response.method, "counting-sample");
  EXPECT_FALSE(response.hotlist.empty());
  EXPECT_GE(response.response_ns, 0);
}

TEST(EngineTest, DeletionsDropConciseAndTraditional) {
  ApproximateAnswerEngine engine(AllOn(100, 6));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(7)).ok());
  }
  ASSERT_TRUE(engine.Observe(StreamOp::Delete(7)).ok());
  const SynopsisRegistry& registry = engine.registry();
  EXPECT_EQ(registry.StateCopy<ReservoirSample>(kTraditionalSynopsisName)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(
      registry.StateCopy<ConciseSample>(kConciseSynopsisName).status().code(),
      StatusCode::kFailedPrecondition);
  const Result<CountingSample> counting =
      registry.StateCopy<CountingSample>(kCountingSynopsisName);
  ASSERT_TRUE(counting.ok());
  EXPECT_EQ(counting.ValueOrDie().CountOf(7), 99);
  EXPECT_EQ(engine.observed_deletes(), 1);
  // Hot lists still work, served by the counting sample.
  EXPECT_EQ(Ask(engine, {.kind = QueryKind::kHotList, .k = 1}).method,
            "counting-sample");
}

TEST(EngineTest, FullHistogramServesExactHotLists) {
  EngineOptions o = AllOn(100, 7);
  o.maintain_full_histogram = true;
  ApproximateAnswerEngine engine(o);
  Relation relation;
  for (Value v : ZipfValues(50000, 500, 1.5, 8)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
    relation.Insert(v);
  }
  const auto response = Ask(engine, {.kind = QueryKind::kHotList, .k = 10});
  EXPECT_EQ(response.method, "full-histogram");
  const HotListAccuracy acc =
      EvaluateHotList(response.hotlist, relation.ExactCounts(), 10);
  EXPECT_EQ(acc.false_positives, 0);
  EXPECT_DOUBLE_EQ(acc.max_relative_count_error, 0.0);
}

TEST(EngineTest, FrequencyAnswerUsesCountingSample) {
  ApproximateAnswerEngine engine(AllOn(1000, 9));
  Relation relation;
  for (Value v : ZipfValues(100000, 1000, 1.25, 10)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
    relation.Insert(v);
  }
  const auto response =
      Ask(engine, {.kind = QueryKind::kFrequency, .value = 1});
  EXPECT_EQ(response.method, "counting-sample");
  const auto truth = static_cast<double>(relation.FrequencyOf(1));
  EXPECT_NEAR(response.estimate.value, truth, 0.2 * truth);
}

TEST(EngineTest, CountWhereAnswerFromConciseSample) {
  ApproximateAnswerEngine engine(AllOn(1000, 11));
  for (Value v : UniformValues(100000, 1000, 12)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  }
  const auto response =
      Ask(engine, {.kind = QueryKind::kCountWhere, .range = {.high = 100}});
  EXPECT_EQ(response.method, "concise-sample");
  EXPECT_NEAR(response.estimate.value, 10000.0, 4000.0);
}

TEST(EngineTest, DistinctValuesAnswerWithinFactor) {
  ApproximateAnswerEngine engine(AllOn(1000, 13));
  for (Value v : UniformValues(200000, 5000, 14)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  }
  const auto response = Ask(engine, {.kind = QueryKind::kDistinct});
  EXPECT_EQ(response.method, "fm-sketch");
  EXPECT_GT(response.estimate.value, 5000.0 / 2.0);
  EXPECT_LT(response.estimate.value, 5000.0 * 2.0);
}

TEST(EngineTest, TotalFootprintSumsSynopses) {
  ApproximateAnswerEngine engine(AllOn(100, 15));
  for (Value v : ZipfValues(10000, 1000, 1.0, 16)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  }
  const Words total = engine.TotalFootprint();
  EXPECT_GT(total, 0);
  // Three bounded samples plus the FM sketch's fixed 2 * kDefaultSketchMaps
  // words (bitmaps + salts).
  EXPECT_LE(total, 3 * 100 + 2 * kDefaultSketchMaps);
}

TEST(EngineTest, HotListFallsBackToConciseThenTraditional) {
  EngineOptions concise_only = AllOn(200, 20);
  concise_only.maintain_counting = false;
  ApproximateAnswerEngine engine(concise_only);
  for (Value v : ZipfValues(20000, 200, 1.2, 21)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  }
  EXPECT_EQ(
      Ask(engine, {.kind = QueryKind::kHotList, .k = 5, .beta = 3}).method,
      "concise-sample");

  EngineOptions traditional_only = AllOn(200, 22);
  traditional_only.maintain_counting = false;
  traditional_only.maintain_concise = false;
  ApproximateAnswerEngine engine2(traditional_only);
  for (Value v : ZipfValues(20000, 200, 1.2, 23)) {
    ASSERT_TRUE(engine2.Observe(StreamOp::Insert(v)).ok());
  }
  EXPECT_EQ(
      Ask(engine2, {.kind = QueryKind::kHotList, .k = 5, .beta = 3}).method,
      "traditional-sample");
  // CountWhere falls back to the traditional sample as well.
  EXPECT_EQ(Ask(engine2, {.kind = QueryKind::kCountWhere}).method,
            "traditional-sample");
}

TEST(EngineTest, DeleteOfAbsentValueFailsFullHistogram) {
  EngineOptions o = AllOn(100, 24);
  o.maintain_full_histogram = true;
  ApproximateAnswerEngine engine(o);
  ASSERT_TRUE(engine.Observe(StreamOp::Insert(1)).ok());
  EXPECT_FALSE(engine.Observe(StreamOp::Delete(999)).ok());
}

TEST(EngineTest, ObserveBatchMatchesPerOpObserve) {
  // Same seed, same op stream: the batched ingestion path must land every
  // synopsis in exactly the state the per-op path produces (the batch
  // path only re-buckets the stream into insert runs; it consumes the
  // same random draws).
  EngineOptions o = AllOn(300, 30);
  o.maintain_full_histogram = true;
  ApproximateAnswerEngine per_op(o);
  ApproximateAnswerEngine batched(o);

  std::vector<StreamOp> ops;
  for (Value v : ZipfValues(30000, 400, 1.0, 31)) {
    ops.push_back(StreamOp::Insert(v));
  }
  for (const StreamOp& op : ops) ASSERT_TRUE(per_op.Observe(op).ok());
  ASSERT_TRUE(batched.ObserveBatch(ops).ok());

  // Neither engine answered a query during ingest, so each state copy is
  // one drain of identical shards into identical first epochs.
  const SynopsisRegistry& b = batched.registry();
  const SynopsisRegistry& p = per_op.registry();
  EXPECT_EQ(batched.observed_inserts(), per_op.observed_inserts());
  const ReservoirSample b_traditional =
      b.StateCopy<ReservoirSample>(kTraditionalSynopsisName).ValueOrDie();
  const ReservoirSample p_traditional =
      p.StateCopy<ReservoirSample>(kTraditionalSynopsisName).ValueOrDie();
  EXPECT_EQ(b_traditional.Points().size(), 300u);
  EXPECT_EQ(b_traditional.Points(), p_traditional.Points());
  const ConciseSample b_concise =
      b.StateCopy<ConciseSample>(kConciseSynopsisName).ValueOrDie();
  const ConciseSample p_concise =
      p.StateCopy<ConciseSample>(kConciseSynopsisName).ValueOrDie();
  EXPECT_GT(b_concise.Threshold(), 1.0);
  EXPECT_EQ(b_concise.SampleSize(), p_concise.SampleSize());
  EXPECT_EQ(b_concise.Threshold(), p_concise.Threshold());
  EXPECT_EQ(SortedEntries(b_concise), SortedEntries(p_concise));
  const CountingSample b_counting =
      b.StateCopy<CountingSample>(kCountingSynopsisName).ValueOrDie();
  const CountingSample p_counting =
      p.StateCopy<CountingSample>(kCountingSynopsisName).ValueOrDie();
  EXPECT_GT(b_counting.Threshold(), 1.0);
  EXPECT_EQ(b_counting.Threshold(), p_counting.Threshold());
  EXPECT_EQ(b_counting.CountedOccurrences(), p_counting.CountedOccurrences());
  EXPECT_EQ(b_counting.Cost().coin_flips, p_counting.Cost().coin_flips);
  const auto response = Ask(batched, {.kind = QueryKind::kHotList, .k = 5});
  EXPECT_EQ(response.method, "full-histogram");
}

TEST(EngineTest, ObserveBatchHandlesInterleavedDeletes) {
  // Deletes split the insert runs; counts must come out exact on the
  // counting sample and the per-op engine must agree.
  EngineOptions o = AllOn(300, 32);
  ApproximateAnswerEngine per_op(o);
  ApproximateAnswerEngine batched(o);

  std::vector<StreamOp> ops;
  for (int round = 0; round < 50; ++round) {
    for (Value v = 0; v < 20; ++v) ops.push_back(StreamOp::Insert(v));
    ops.push_back(StreamOp::Delete(round % 20));
  }
  for (const StreamOp& op : ops) ASSERT_TRUE(per_op.Observe(op).ok());
  ASSERT_TRUE(batched.ObserveBatch(ops).ok());

  EXPECT_EQ(batched.observed_inserts(), per_op.observed_inserts());
  EXPECT_EQ(batched.observed_deletes(), per_op.observed_deletes());
  EXPECT_EQ(batched.observed_deletes(), 50);
  const CountingSample b_counting =
      batched.registry()
          .StateCopy<CountingSample>(kCountingSynopsisName)
          .ValueOrDie();
  const CountingSample p_counting =
      per_op.registry()
          .StateCopy<CountingSample>(kCountingSynopsisName)
          .ValueOrDie();
  for (Value v = 0; v < 20; ++v) {
    EXPECT_EQ(b_counting.CountOf(v), p_counting.CountOf(v));
  }
  // 50 inserts of each value, minus its deletes (each value is deleted
  // 2 or 3 times over the 50 rounds); the footprint never forces a raise.
  EXPECT_EQ(b_counting.Threshold(), 1.0);
  EXPECT_EQ(b_counting.CountOf(0), 47);
  EXPECT_EQ(b_counting.CountOf(19), 48);
}

// Asserts that every piece of engine state the batched path can influence
// matches the per-op path exactly: invalidation flags (which synopses
// survived the deletes), insert/delete accounting, counting-sample state,
// and the deterministic distinct sketch.  The state is read through
// StateCopy, which publishes an epoch holding every op.
void ExpectEnginesIdentical(const ApproximateAnswerEngine& batched,
                            const ApproximateAnswerEngine& per_op,
                            Value domain) {
  EXPECT_EQ(batched.observed_inserts(), per_op.observed_inserts());
  EXPECT_EQ(batched.observed_deletes(), per_op.observed_deletes());
  // Invalidation flags: a delete anywhere in the stream must drop the
  // concise and traditional samples on *both* paths — run-splitting must
  // not let the batched path keep a uniform sample the per-op path lost.
  EXPECT_EQ(Serves(batched, kTraditionalSynopsisName),
            Serves(per_op, kTraditionalSynopsisName));
  EXPECT_EQ(Serves(batched, kConciseSynopsisName),
            Serves(per_op, kConciseSynopsisName));
  // The counting sample applies deletes and the sketch ignores them, so
  // both always serve.
  const Result<CountingSample> b_counting =
      batched.registry().StateCopy<CountingSample>(kCountingSynopsisName);
  const Result<CountingSample> p_counting =
      per_op.registry().StateCopy<CountingSample>(kCountingSynopsisName);
  ASSERT_TRUE(b_counting.ok() && p_counting.ok());
  const CountingSample& b = b_counting.ValueOrDie();
  const CountingSample& p = p_counting.ValueOrDie();
  EXPECT_EQ(b.Threshold(), p.Threshold());
  EXPECT_EQ(b.CountedOccurrences(), p.CountedOccurrences());
  EXPECT_GT(b.CountedOccurrences(), 0);
  EXPECT_EQ(b.ObservedInserts(), p.ObservedInserts());
  EXPECT_EQ(b.ObservedInserts(), batched.observed_inserts());
  for (Value v = 0; v <= domain; ++v) {
    EXPECT_EQ(b.CountOf(v), p.CountOf(v)) << "value " << v;
  }
  const Result<FlajoletMartin> b_sketch =
      batched.registry().StateCopy<FlajoletMartin>(kDistinctSketchName);
  const Result<FlajoletMartin> p_sketch =
      per_op.registry().StateCopy<FlajoletMartin>(kDistinctSketchName);
  ASSERT_TRUE(b_sketch.ok() && p_sketch.ok());
  EXPECT_GT(b_sketch.ValueOrDie().Estimate(), 0.0);
  EXPECT_DOUBLE_EQ(b_sketch.ValueOrDie().Estimate(),
                   p_sketch.ValueOrDie().Estimate());
}

TEST(EngineTest, ObserveBatchInvalidationMatchesPerOp) {
  // One delete mid-batch: both paths must drop the uniform samples at the
  // same stream position and agree on everything that remains.
  EngineOptions o = AllOn(300, 40);
  ApproximateAnswerEngine per_op(o);
  ApproximateAnswerEngine batched(o);

  std::vector<StreamOp> ops;
  for (Value v : ZipfValues(5000, 50, 1.0, 41)) {
    ops.push_back(StreamOp::Insert(v));
  }
  ops.push_back(StreamOp::Delete(1));
  for (Value v : ZipfValues(5000, 50, 1.0, 42)) {
    ops.push_back(StreamOp::Insert(v));
  }

  for (const StreamOp& op : ops) ASSERT_TRUE(per_op.Observe(op).ok());
  ASSERT_TRUE(batched.ObserveBatch(ops).ok());

  ExpectEnginesIdentical(batched, per_op, 50);
  EXPECT_FALSE(Serves(batched, kTraditionalSynopsisName));
  EXPECT_FALSE(Serves(batched, kConciseSynopsisName));
  // Both engines answer hot lists the same way after invalidation.
  EXPECT_EQ(Ask(batched, {.kind = QueryKind::kHotList, .k = 5}).method,
            "counting-sample");
  EXPECT_EQ(Ask(per_op, {.kind = QueryKind::kHotList, .k = 5}).method,
            "counting-sample");
}

TEST(EngineTest, ObserveBatchDeleteFirstAndLastMatchPerOp) {
  // A batch that *starts* with a delete (no preceding insert run) and
  // *ends* with one (no following run) exercises both run-splitting edges.
  EngineOptions o = AllOn(200, 43);
  ApproximateAnswerEngine per_op(o);
  ApproximateAnswerEngine batched(o);

  std::vector<StreamOp> ops;
  ops.push_back(StreamOp::Delete(7));  // absent: Theorem 5 no-op, still ok
  for (Value v = 0; v < 30; ++v) {
    for (int r = 0; r < 10; ++r) ops.push_back(StreamOp::Insert(v));
  }
  ops.push_back(StreamOp::Delete(3));

  for (const StreamOp& op : ops) ASSERT_TRUE(per_op.Observe(op).ok());
  ASSERT_TRUE(batched.ObserveBatch(ops).ok());

  ExpectEnginesIdentical(batched, per_op, 30);
  EXPECT_EQ(batched.observed_deletes(), 2);
}

TEST(EngineTest, ObserveBatchConsecutiveDeletesMatchPerOp) {
  // Consecutive deletes produce empty insert runs between them; the
  // batched path must consume them one-by-one exactly like Observe.
  EngineOptions o = AllOn(200, 44);
  ApproximateAnswerEngine per_op(o);
  ApproximateAnswerEngine batched(o);

  std::vector<StreamOp> ops;
  for (int r = 0; r < 40; ++r) {
    for (Value v = 0; v < 10; ++v) ops.push_back(StreamOp::Insert(v));
  }
  for (int i = 0; i < 5; ++i) ops.push_back(StreamOp::Delete(2));
  for (Value v = 0; v < 10; ++v) ops.push_back(StreamOp::Insert(v));
  for (int i = 0; i < 3; ++i) ops.push_back(StreamOp::Delete(9));

  for (const StreamOp& op : ops) ASSERT_TRUE(per_op.Observe(op).ok());
  ASSERT_TRUE(batched.ObserveBatch(ops).ok());

  ExpectEnginesIdentical(batched, per_op, 10);
  EXPECT_EQ(batched.observed_deletes(), 8);
}

TEST(EngineTest, ObserveBatchPropagatesDeleteErrors) {
  EngineOptions o = AllOn(100, 33);
  o.maintain_full_histogram = true;
  ApproximateAnswerEngine engine(o);
  const std::vector<StreamOp> ops = {StreamOp::Insert(1),
                                     StreamOp::Delete(999)};
  EXPECT_FALSE(engine.ObserveBatch(ops).ok());
  // The insert run before the failing delete was applied.
  EXPECT_EQ(engine.observed_inserts(), 1);
}

TEST(EngineTest, InsertIsVisibleToTheNextUnboundedQuery) {
  // No settle anywhere: the default staleness bounds publish every op at
  // the next query's pin, so each answer reflects the insert just before
  // it, through the same epochs and frozen views the server reads.
  ApproximateAnswerEngine engine(AllOn(1000, 50));
  for (Value v : UniformValues(5000, 100, 51)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  }
  constexpr Value kNew = 424242;
  const PlannedQuery frequency = {.kind = QueryKind::kFrequency,
                                  .value = kNew};
  const PlannedResponse unseen = Ask(engine, frequency);
  EXPECT_EQ(unseen.method, "counting-sample");
  EXPECT_EQ(unseen.estimate.value, 0.0);

  ASSERT_TRUE(engine.Observe(StreamOp::Insert(kNew)).ok());
  const PlannedResponse seen = Ask(engine, frequency);
  EXPECT_EQ(seen.method, "counting-sample");
  EXPECT_GT(seen.estimate.value, 0.0);

  // 100 values, 50 occurrences each: 500 more of kNew put it on top of
  // the very next hot list.
  const PlannedQuery top = {.kind = QueryKind::kHotList, .k = 1};
  ASSERT_FALSE(Ask(engine, top).hotlist.empty());
  EXPECT_NE(Ask(engine, top).hotlist.front().value, kNew);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(kNew)).ok());
  }
  const PlannedResponse hot = Ask(engine, top);
  ASSERT_FALSE(hot.hotlist.empty());
  EXPECT_EQ(hot.hotlist.front().value, kNew);

  // 5000 fresh values: the next distinct estimate moves from ~100 to
  // ~5100.
  const PlannedQuery distinct = {.kind = QueryKind::kDistinct};
  const double before = Ask(engine, distinct).estimate.value;
  EXPECT_LT(before, 500.0);
  for (Value v = 1000000; v < 1005000; ++v) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  }
  const PlannedResponse after = Ask(engine, distinct);
  EXPECT_EQ(after.method, "fm-sketch");
  EXPECT_GT(after.estimate.value, 2500.0);
}

TEST(EngineTest, SettleCachesPublishesTheEpochPredictionsRead) {
  // Predictions read the published epoch and never refresh it, so bounded
  // planning follows an explicit SettleCaches().  In the exact regime
  // (footprint 1000 over 400 values, τ = 1) the concise sample keeps every
  // point, so each settle publishes a larger sample and a smaller
  // predicted error.
  ApproximateAnswerEngine engine(AllOn(1000, 52));
  const SynopsisRegistry& registry = engine.registry();
  const SynopsisHandle* concise = registry.handle(kConciseSynopsisName);
  ASSERT_NE(concise, nullptr);
  const std::vector<Value> stream = UniformValues(8000, 400, 53);
  const auto observe = [&engine](std::span<const Value> values) {
    for (Value v : values) {
      ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
    }
  };
  const std::span<const Value> all(stream);
  observe(all.first(2000));
  const QueryContext ctx{registry.observed_inserts()};
  QueryBound bound;
  bound.max_error = 0.5;

  // Nothing published yet: no prediction, and no bounded plan meets the
  // bound.
  EXPECT_TRUE(std::isinf(
      concise->PredictedError(QueryKind::kCountWhere, ctx, 0.95)));
  EXPECT_FALSE(PlanQuery(registry, QueryKind::kCountWhere, bound, ctx)
                   .meets_error);

  registry.SettleCaches();
  const double first =
      concise->PredictedError(QueryKind::kCountWhere, ctx, 0.95);
  ASSERT_TRUE(std::isfinite(first));
  const PlanChoice settled =
      PlanQuery(registry, QueryKind::kCountWhere, bound, ctx);
  ASSERT_NE(settled.handle, nullptr);
  EXPECT_TRUE(settled.meets_error);
  EXPECT_TRUE(std::isfinite(settled.predicted_error));

  // More ops without a settle: the prediction still reads the old epoch.
  observe(all.subspan(2000));
  EXPECT_EQ(concise->PredictedError(QueryKind::kCountWhere, ctx, 0.95),
            first);
  EXPECT_TRUE(concise->CacheIsStale());

  // The settle publishes them: 4x the points, half the predicted error.
  registry.SettleCaches();
  EXPECT_FALSE(concise->CacheIsStale());
  const double second =
      concise->PredictedError(QueryKind::kCountWhere, ctx, 0.95);
  EXPECT_DOUBLE_EQ(second, first / 2.0);
  const PlanChoice current =
      PlanQuery(registry, QueryKind::kCountWhere, bound, ctx);
  ASSERT_EQ(current.handle, settled.handle);
  EXPECT_DOUBLE_EQ(current.predicted_error,
                   current.handle->PredictedError(QueryKind::kCountWhere,
                                                  ctx, 0.95));
  EXPECT_LT(current.predicted_error, settled.predicted_error);
}

TEST(EngineTest, NoSynopsesConfigured) {
  EngineOptions o;
  o.maintain_traditional = false;
  o.maintain_concise = false;
  o.maintain_counting = false;
  o.maintain_distinct_sketch = false;
  ApproximateAnswerEngine engine(o);
  ASSERT_TRUE(engine.Observe(StreamOp::Insert(1)).ok());
  EXPECT_EQ(Ask(engine, {.kind = QueryKind::kHotList, .k = 1}).method, "none");
  EXPECT_EQ(Ask(engine, {.kind = QueryKind::kCountWhere}).method, "none");
  EXPECT_EQ(Ask(engine, {.kind = QueryKind::kDistinct}).method, "none");
}

}  // namespace
}  // namespace aqua
