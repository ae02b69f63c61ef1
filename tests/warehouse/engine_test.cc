#include "warehouse/engine.h"

#include <gtest/gtest.h>

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

EngineOptions AllOn(Words m, std::uint64_t seed) {
  EngineOptions o;
  o.footprint_bound = m;
  o.seed = seed;
  o.maintain_full_histogram = false;
  return o;
}

TEST(EngineTest, MaintainsConfiguredSynopses) {
  ApproximateAnswerEngine engine(AllOn(100, 1));
  EXPECT_NE(engine.traditional(), nullptr);
  EXPECT_NE(engine.concise(), nullptr);
  EXPECT_NE(engine.counting(), nullptr);
  EXPECT_EQ(engine.full_histogram(), nullptr);
}

TEST(EngineTest, ObserveRoutesInserts) {
  ApproximateAnswerEngine engine(AllOn(100, 2));
  for (Value v : ZipfValues(10000, 100, 1.0, 3)) {
    ASSERT_TRUE(engine.Observe(StreamOp::Insert(v)).ok());
  }
  EXPECT_EQ(engine.observed_inserts(), 10000);
  EXPECT_EQ(engine.traditional()->ObservedInserts(), 10000);
  EXPECT_EQ(engine.concise()->ObservedInserts(), 10000);
  EXPECT_EQ(engine.counting()->ObservedInserts(), 10000);
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
  EXPECT_EQ(engine.traditional(), nullptr);
  EXPECT_EQ(engine.concise(), nullptr);
  ASSERT_NE(engine.counting(), nullptr);
  EXPECT_EQ(engine.counting()->CountOf(7), 99);
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

  EXPECT_EQ(batched.observed_inserts(), per_op.observed_inserts());
  EXPECT_EQ(batched.traditional()->Points(), per_op.traditional()->Points());
  EXPECT_EQ(batched.concise()->SampleSize(), per_op.concise()->SampleSize());
  EXPECT_EQ(batched.concise()->Threshold(), per_op.concise()->Threshold());
  EXPECT_EQ(batched.concise()->Cost().coin_flips,
            per_op.concise()->Cost().coin_flips);
  EXPECT_EQ(batched.counting()->Threshold(), per_op.counting()->Threshold());
  EXPECT_EQ(batched.counting()->CountedOccurrences(),
            per_op.counting()->CountedOccurrences());
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
  ASSERT_NE(batched.counting(), nullptr);
  for (Value v = 0; v < 20; ++v) {
    EXPECT_EQ(batched.counting()->CountOf(v), per_op.counting()->CountOf(v));
  }
}

// Asserts that every piece of engine state the batched path can influence
// matches the per-op path exactly: invalidation flags (which synopses
// survived the deletes), insert/delete accounting, counting-sample state,
// and the deterministic distinct sketch.
void ExpectEnginesIdentical(const ApproximateAnswerEngine& batched,
                            const ApproximateAnswerEngine& per_op,
                            Value domain) {
  EXPECT_EQ(batched.observed_inserts(), per_op.observed_inserts());
  EXPECT_EQ(batched.observed_deletes(), per_op.observed_deletes());
  // Invalidation flags: a delete anywhere in the stream must drop the
  // concise and traditional samples on *both* paths — run-splitting must
  // not let the batched path keep a uniform sample the per-op path lost.
  EXPECT_EQ(batched.traditional() == nullptr,
            per_op.traditional() == nullptr);
  EXPECT_EQ(batched.concise() == nullptr, per_op.concise() == nullptr);
  ASSERT_EQ(batched.counting() == nullptr, per_op.counting() == nullptr);
  if (batched.counting() != nullptr) {
    EXPECT_EQ(batched.counting()->Threshold(),
              per_op.counting()->Threshold());
    EXPECT_EQ(batched.counting()->CountedOccurrences(),
              per_op.counting()->CountedOccurrences());
    EXPECT_EQ(batched.counting()->ObservedInserts(),
              per_op.counting()->ObservedInserts());
    for (Value v = 0; v <= domain; ++v) {
      EXPECT_EQ(batched.counting()->CountOf(v), per_op.counting()->CountOf(v))
          << "value " << v;
    }
  }
  ASSERT_EQ(batched.distinct_sketch() == nullptr,
            per_op.distinct_sketch() == nullptr);
  if (batched.distinct_sketch() != nullptr) {
    EXPECT_DOUBLE_EQ(batched.distinct_sketch()->Estimate(),
                     per_op.distinct_sketch()->Estimate());
  }
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
  EXPECT_EQ(batched.traditional(), nullptr);
  EXPECT_EQ(batched.concise(), nullptr);
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
