// Unit tests of FrozenView over hand-built Specs: the O(k) hot-list cut
// semantics (β floor, fixed floor, c_k clamping, ties), the O(log m)
// range prefix-sum arithmetic against the shared CountWhereFromHits core,
// quantiles against a freshly sorted point sample, and the Answers()
// coverage each view builder declares.  The equivalence against the live
// per-query answer paths lives in view_equivalence_property_test.cc.

#include <cstdint>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "core/concise_sample.h"
#include "core/counting_sample.h"
#include "estimate/aggregates.h"
#include "estimate/quantiles.h"
#include "sample/capabilities.h"
#include "sample/reservoir_sample.h"
#include "sketch/flajolet_martin.h"
#include "view/frozen_view.h"
#include "view/view_builders.h"

namespace aqua {
namespace {

void ExpectEstimateEq(const Estimate& a, const Estimate& b) {
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.ci_low, b.ci_low);
  EXPECT_EQ(a.ci_high, b.ci_high);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.sample_points, b.sample_points);
}

/// A uniform-sample-shaped Spec: scale = n / m, β floor, count_where and
/// quantile on.
FrozenView::Spec UniformSpec(std::vector<ValueCount> entries,
                             std::int64_t observed_inserts) {
  FrozenView::Spec spec;
  spec.entries = std::move(entries);
  spec.sample_size = SampleSizeOf(spec.entries);
  spec.observed_inserts = observed_inserts;
  FrozenView::HotListParams hot;
  const auto m = static_cast<double>(spec.sample_size);
  hot.scale = m > 0 ? static_cast<double>(observed_inserts) / m : 0.0;
  spec.hot_list = hot;
  spec.count_where = true;
  spec.quantile = true;
  return spec;
}

TEST(FrozenViewTest, EmptyViewServesEmptyAnswers) {
  const FrozenView view(UniformSpec({}, 0));
  EXPECT_EQ(view.entry_count(), 0);
  EXPECT_EQ(view.sample_size(), 0);
  EXPECT_EQ(view.MomentF(0), 0.0);
  EXPECT_EQ(view.MomentF(1), 0.0);
  EXPECT_EQ(view.MomentF(2), 0.0);

  HotListQuery query;
  query.k = 5;
  EXPECT_TRUE(view.HotListAnswer(query).empty());

  QueryContext ctx;
  const Estimate est =
      view.CountWhereRangeAnswer(ValueRange{0, 100}, 0.95, ctx);
  ExpectEstimateEq(est,
                   SampleEstimator::CountWhereFromHits(0, 0, 0, 0.95));
}

TEST(FrozenViewTest, HotListBetaFloorAndKCut) {
  // Counts 5, 3, 3, 1; scale 2 (n = 24, m = 12).
  const FrozenView view(UniformSpec(
      {{40, 1}, {10, 5}, {30, 3}, {20, 3}}, 24));

  // k = 0: every entry with count >= β.
  HotListQuery all_above_beta;
  all_above_beta.k = 0;
  all_above_beta.beta = 3.0;
  const HotList above = view.HotListAnswer(all_above_beta);
  ASSERT_EQ(above.size(), 3u);
  // Count-descending, value-ascending on ties; estimate = count * 2.
  EXPECT_EQ(above[0].value, 10);
  EXPECT_EQ(above[0].synopsis_count, 5);
  EXPECT_EQ(above[0].estimated_count, 10.0);
  EXPECT_EQ(above[1].value, 20);
  EXPECT_EQ(above[2].value, 30);

  // k = 2 with a vacuous β: the cut is c_2 = 3, and the tie at 3 rides
  // along (same "all pairs with count >= max(floor, c_k)" rule as the
  // per-query reporters).
  HotListQuery top2;
  top2.k = 2;
  top2.beta = 0.0;
  EXPECT_EQ(view.HotListAnswer(top2).size(), 3u);

  // k beyond the entry count clamps to the minimum count: all 4 report.
  HotListQuery topmany;
  topmany.k = 100;
  topmany.beta = 0.0;
  EXPECT_EQ(view.HotListAnswer(topmany).size(), 4u);

  // β above every count: nothing reports.
  HotListQuery high_beta;
  high_beta.k = 0;
  high_beta.beta = 6.0;
  EXPECT_TRUE(view.HotListAnswer(high_beta).empty());
}

TEST(FrozenViewTest, HotListFixedFloorIgnoresBeta) {
  // Counting-sample shape: scale 1, additive compensation, fixed floor.
  FrozenView::Spec spec;
  spec.entries = {{1, 6}, {2, 4}, {3, 2}};
  spec.sample_size = 12;
  spec.observed_inserts = 12;
  FrozenView::HotListParams hot;
  hot.scale = 1.0;
  hot.offset = 1.5;
  hot.floor_is_beta = false;
  hot.fixed_floor = 4.0;
  spec.hot_list = hot;
  const FrozenView view(std::move(spec));

  HotListQuery query;
  query.k = 0;
  query.beta = 100.0;  // must be ignored
  const HotList report = view.HotListAnswer(query);
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].value, 1);
  EXPECT_EQ(report[0].estimated_count, 7.5);
  EXPECT_EQ(report[1].value, 2);
  EXPECT_EQ(report[1].estimated_count, 5.5);
}

TEST(FrozenViewTest, CountWhereRangeMatchesPredicateScan) {
  const FrozenView view(UniformSpec({{10, 2}, {20, 3}, {30, 5}}, 100));
  QueryContext ctx;
  ctx.observed_inserts = 100;

  const std::vector<ValueRange> ranges = {
      {0, 100},    // everything
      {15, 25},    // interior, one entry
      {20, 20},    // single-value inclusive
      {11, 19},    // gap between entries
      {10, 30},    // exact endpoints
      {31, 1000},  // beyond the largest value
  };
  for (const ValueRange& range : ranges) {
    SCOPED_TRACE(testing::Message() << "range [" << range.low << ", "
                                    << range.high << "]");
    // Reference: a folded-entry scan with the range as a predicate.
    std::int64_t hits = 0;
    for (const ValueCount& e : view.ByValueOrder()) {
      if (range.AsPredicate()(e.value)) hits += e.count;
    }
    ExpectEstimateEq(view.CountWhereRangeAnswer(range, 0.95, ctx),
                     SampleEstimator::CountWhereFromHits(
                         hits, view.sample_size(), ctx.observed_inserts,
                         0.95));
  }

  // Everything: 10 of 10 sample points hit.
  ExpectEstimateEq(
      view.CountWhereRangeAnswer(ValueRange{0, 100}, 0.95, ctx),
      SampleEstimator::CountWhereFromHits(10, 10, 100, 0.95));
  // Interior hit on the count-3 entry only.
  ExpectEstimateEq(
      view.CountWhereRangeAnswer(ValueRange{15, 25}, 0.95, ctx),
      SampleEstimator::CountWhereFromHits(3, 10, 100, 0.95));
  // An inverted range has no hits (and must not trip the binary search).
  ExpectEstimateEq(
      view.CountWhereRangeAnswer(ValueRange{25, 15}, 0.95, ctx),
      SampleEstimator::CountWhereFromHits(0, 10, 100, 0.95));
}

TEST(FrozenViewTest, QuantilesMatchExpandedPointSample) {
  const std::vector<ValueCount> entries = {{7, 4}, {3, 1}, {9, 2}, {5, 3}};
  const FrozenView view(UniformSpec(entries, 1000));

  std::vector<Value> points;
  for (const ValueCount& e : entries) {
    points.insert(points.end(), static_cast<std::size_t>(e.count), e.value);
  }
  const QuantileEstimator direct(points);

  for (double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    SCOPED_TRACE(testing::Message() << "q = " << q);
    ExpectEstimateEq(view.QuantileAnswer(q, 0.95),
                     direct.QuantileWithBounds(q, 0.95));
  }
}

TEST(FrozenViewTest, FrequencyLooksUpFrozenCounts) {
  FrozenView::Spec spec;
  spec.entries = {{10, 2}, {20, 3}};
  spec.sample_size = 5;
  // A transparent estimator: surface the synopsis count and confidence so
  // the test can see exactly what the binary search fed it.
  spec.frequency = [](Count count, double confidence) {
    Estimate est;
    est.value = static_cast<double>(count);
    est.confidence = confidence;
    return est;
  };
  const FrozenView view(std::move(spec));

  EXPECT_EQ(view.FrequencyAnswer(10).value, 2.0);
  EXPECT_EQ(view.FrequencyAnswer(20).value, 3.0);
  // Absent values (below, between, above the stored range) report count 0.
  EXPECT_EQ(view.FrequencyAnswer(5).value, 0.0);
  EXPECT_EQ(view.FrequencyAnswer(15).value, 0.0);
  EXPECT_EQ(view.FrequencyAnswer(25).value, 0.0);
  EXPECT_EQ(view.FrequencyAnswer(10, 0.8).confidence, 0.8);
}

TEST(FrozenViewTest, MomentsAndScalarsFreezeTheSnapshot) {
  const FrozenView view(UniformSpec({{1, 2}, {2, 3}, {3, 5}}, 40));
  EXPECT_EQ(view.entry_count(), 3);
  EXPECT_EQ(view.sample_size(), 10);
  EXPECT_EQ(view.observed_inserts(), 40);
  EXPECT_EQ(view.MomentF(0), 3.0);
  EXPECT_EQ(view.MomentF(1), 10.0);
  EXPECT_EQ(view.MomentF(2), 4.0 + 9.0 + 25.0);
}

TEST(FrozenViewTest, BuildersDeclareTheirQueryKinds) {
  ConciseSampleOptions concise_options;
  concise_options.footprint_bound = 64;
  concise_options.seed = 7;
  ConciseSample concise(concise_options);
  CountingSampleOptions counting_options;
  counting_options.footprint_bound = 64;
  counting_options.seed = 8;
  CountingSample counting(counting_options);
  ReservoirSample traditional(64, 9);
  FlajoletMartin sketch(16, 10);
  for (Value v = 0; v < 200; ++v) {
    const Value value = v % 37;
    concise.Insert(value);
    counting.Insert(value);
    traditional.Insert(value);
    sketch.Insert(value);
  }

  const FrozenView concise_view(BuildConciseViewSpec(concise));
  EXPECT_TRUE(concise_view.Answers(QueryKind::kHotList));
  EXPECT_TRUE(concise_view.Answers(QueryKind::kFrequency));
  EXPECT_TRUE(concise_view.Answers(QueryKind::kCountWhere));
  EXPECT_TRUE(concise_view.Answers(QueryKind::kQuantile));
  EXPECT_FALSE(concise_view.Answers(QueryKind::kDistinct));
  EXPECT_EQ(concise_view.sample_size(), concise.SampleSize());
  EXPECT_EQ(concise_view.observed_inserts(), concise.ObservedInserts());

  // Not a uniform sample: no count_where/quantile from a counting sample.
  const FrozenView counting_view(BuildCountingViewSpec(counting));
  EXPECT_TRUE(counting_view.Answers(QueryKind::kHotList));
  EXPECT_TRUE(counting_view.Answers(QueryKind::kFrequency));
  EXPECT_FALSE(counting_view.Answers(QueryKind::kCountWhere));
  EXPECT_FALSE(counting_view.Answers(QueryKind::kQuantile));

  // No per-value counts worth trusting from a traditional sample's
  // duplicates — frequency stays on the live path.
  const FrozenView traditional_view(BuildTraditionalViewSpec(traditional));
  EXPECT_TRUE(traditional_view.Answers(QueryKind::kHotList));
  EXPECT_FALSE(traditional_view.Answers(QueryKind::kFrequency));
  EXPECT_TRUE(traditional_view.Answers(QueryKind::kCountWhere));
  EXPECT_TRUE(traditional_view.Answers(QueryKind::kQuantile));
  EXPECT_EQ(traditional_view.sample_size(), traditional.SampleSize());

  const FrozenView sketch_view(BuildDistinctSketchViewSpec(sketch));
  EXPECT_TRUE(sketch_view.Answers(QueryKind::kDistinct));
  EXPECT_FALSE(sketch_view.Answers(QueryKind::kHotList));
  ExpectEstimateEq(sketch_view.DistinctAnswer(), FmDistinctEstimate(sketch));
}

}  // namespace
}  // namespace aqua
