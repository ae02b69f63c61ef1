// Bit-identical equivalence between the epoch-frozen view and the direct
// per-query answer paths, for every built-in synopsis, across the sweep
// seeds.  This is the contract that lets TypedAnswerSource route a query
// to whichever path is live without changing a single answered bit: the
// view stores estimator *parameters* and calls the same shared arithmetic
// the per-query paths call, so every Estimate field and every HotList
// item must compare exactly equal (==, not near).
//
// Unlike the statistical sweeps, equality is structural: it must hold on
// every seed, so the checks are hard per-seed assertions with no failure
// budget.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/concise_sample.h"
#include "core/counting_sample.h"
#include "estimate/aggregates.h"
#include "registry/builtin.h"
#include "sample/capabilities.h"
#include "sample/reservoir_sample.h"
#include "sketch/flajolet_martin.h"
#include "property/seed_sweep.h"
#include "view/frozen_view.h"
#include "workload/generators.h"

namespace aqua {
namespace {

constexpr std::int64_t kStreamLength = 20000;
constexpr std::int64_t kDomain = 2000;
constexpr Words kFootprint = 512;

void ExpectEstimateEq(const Estimate& direct, const Estimate& view) {
  EXPECT_EQ(direct.value, view.value);
  EXPECT_EQ(direct.ci_low, view.ci_low);
  EXPECT_EQ(direct.ci_high, view.ci_high);
  EXPECT_EQ(direct.confidence, view.confidence);
  EXPECT_EQ(direct.sample_points, view.sample_points);
}

void ExpectHotListEq(const HotList& direct, const HotList& view) {
  ASSERT_EQ(direct.size(), view.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "item " << i);
    EXPECT_EQ(direct[i].value, view[i].value);
    EXPECT_EQ(direct[i].estimated_count, view[i].estimated_count);
    EXPECT_EQ(direct[i].synopsis_count, view[i].synopsis_count);
  }
}

std::vector<HotListQuery> HotListQueries() {
  std::vector<HotListQuery> queries;
  for (const std::int64_t k : {0, 1, 5, 50, 100000}) {
    for (const double beta : {1.0, 3.0}) {
      HotListQuery query;
      query.k = k;
      query.beta = beta;
      queries.push_back(query);
    }
  }
  return queries;
}

/// Hot-list equivalence over every query shape, for any synopsis whose
/// descriptor declares the kind.
template <typename S>
void CheckHotLists(const SynopsisDescriptor<S>& descriptor, const S& sample,
                   const FrozenView& view, const QueryContext& ctx) {
  ASSERT_TRUE(view.Answers(QueryKind::kHotList));
  for (const HotListQuery& query : HotListQueries()) {
    SCOPED_TRACE(testing::Message()
                 << "hot list k=" << query.k << " beta=" << query.beta);
    ExpectHotListEq(descriptor.answers.hot_list(sample, query, ctx),
                    view.HotListAnswer(query));
  }
}

/// Frequency equivalence over present values (the stream's head) and
/// absent ones (outside the domain).
template <typename S>
void CheckFrequencies(const SynopsisDescriptor<S>& descriptor,
                      const S& sample, const FrozenView& view,
                      const std::vector<Value>& stream,
                      const QueryContext& ctx) {
  ASSERT_TRUE(view.Answers(QueryKind::kFrequency));
  std::vector<Value> probes(stream.begin(), stream.begin() + 32);
  probes.push_back(kDomain + 17);  // never inserted
  probes.push_back(-5);
  for (const Value value : probes) {
    SCOPED_TRACE(testing::Message() << "frequency of " << value);
    ExpectEstimateEq(descriptor.answers.frequency(sample, value, ctx),
                     view.FrequencyAnswer(value));
  }
}

/// count_where equivalence: the direct predicate scan vs the view's
/// O(log m) range form.
template <typename S>
void CheckCountWhere(const SynopsisDescriptor<S>& descriptor,
                     const S& sample, const FrozenView& view,
                     const QueryContext& ctx) {
  ASSERT_TRUE(view.Answers(QueryKind::kCountWhere));
  const std::vector<ValueRange> ranges = {{1, kDomain},
                                          {kDomain / 4, kDomain / 2},
                                          {1, 1},
                                          {kDomain + 1, kDomain + 100}};
  for (const ValueRange& range : ranges) {
    SCOPED_TRACE(testing::Message() << "count_where [" << range.low << ", "
                                    << range.high << "]");
    const Estimate direct = descriptor.answers.count_where(
        sample, range.AsPredicate(), 0.95, ctx);
    ExpectEstimateEq(direct, view.CountWhereRangeAnswer(range, 0.95, ctx));
  }
}

template <typename S>
void CheckQuantiles(const SynopsisDescriptor<S>& descriptor, const S& sample,
                    const FrozenView& view, const QueryContext& ctx) {
  ASSERT_TRUE(view.Answers(QueryKind::kQuantile));
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    SCOPED_TRACE(testing::Message() << "quantile q=" << q);
    ExpectEstimateEq(descriptor.answers.quantile(sample, q, 0.95, ctx),
                     view.QuantileAnswer(q, 0.95));
  }
}

template <typename S>
S BuildFromStream(const SynopsisDescriptor<S>& descriptor,
                  const std::vector<Value>& stream, std::uint64_t seed) {
  S sample = descriptor.factory(seed);
  for (const Value v : stream) sample.Insert(v);
  return sample;
}

TEST(ViewEquivalenceProperty, ConciseSampleAllKindsMatchExactly) {
  RunSeedSweep([](std::uint64_t seed) {
    SCOPED_TRACE(testing::Message() << "seed 0x" << std::hex << seed);
    const SynopsisDescriptor<ConciseSample> descriptor =
        ConciseSampleDescriptor(kFootprint);
    const std::vector<Value> stream =
        ZipfValues(kStreamLength, kDomain, 1.0, seed);
    const ConciseSample sample = BuildFromStream(descriptor, stream, seed);
    const FrozenView view(descriptor.spec_builder(sample));
    QueryContext ctx;
    ctx.observed_inserts = sample.ObservedInserts();

    CheckHotLists(descriptor, sample, view, ctx);
    CheckFrequencies(descriptor, sample, view, stream, ctx);
    CheckCountWhere(descriptor, sample, view, ctx);
    CheckQuantiles(descriptor, sample, view, ctx);
    return !testing::Test::HasFailure();
  });
}

TEST(ViewEquivalenceProperty, CountingSampleHotListAndFrequencyMatch) {
  RunSeedSweep([](std::uint64_t seed) {
    SCOPED_TRACE(testing::Message() << "seed 0x" << std::hex << seed);
    const SynopsisDescriptor<CountingSample> descriptor =
        CountingSampleDescriptor(kFootprint);
    const std::vector<Value> stream =
        ZipfValues(kStreamLength, kDomain, 1.5, seed);
    const CountingSample sample = BuildFromStream(descriptor, stream, seed);
    const FrozenView view(descriptor.spec_builder(sample));
    QueryContext ctx;
    ctx.observed_inserts = sample.ObservedInserts();

    CheckHotLists(descriptor, sample, view, ctx);
    CheckFrequencies(descriptor, sample, view, stream, ctx);
    EXPECT_FALSE(view.Answers(QueryKind::kCountWhere));
    EXPECT_FALSE(view.Answers(QueryKind::kQuantile));
    return !testing::Test::HasFailure();
  });
}

TEST(ViewEquivalenceProperty, TraditionalSampleFoldedEntriesMatch) {
  RunSeedSweep([](std::uint64_t seed) {
    SCOPED_TRACE(testing::Message() << "seed 0x" << std::hex << seed);
    const SynopsisDescriptor<ReservoirSample> descriptor =
        TraditionalSampleDescriptor(kFootprint);
    const std::vector<Value> stream =
        ZipfValues(kStreamLength, kDomain, 1.0, seed);
    const ReservoirSample sample = BuildFromStream(descriptor, stream, seed);
    const FrozenView view(descriptor.spec_builder(sample));
    QueryContext ctx;
    ctx.observed_inserts = sample.ObservedInserts();

    CheckHotLists(descriptor, sample, view, ctx);
    CheckCountWhere(descriptor, sample, view, ctx);
    CheckQuantiles(descriptor, sample, view, ctx);
    EXPECT_FALSE(view.Answers(QueryKind::kFrequency));
    return !testing::Test::HasFailure();
  });
}

TEST(ViewEquivalenceProperty, DistinctSketchPrecomputedEstimateMatches) {
  RunSeedSweep([](std::uint64_t seed) {
    SCOPED_TRACE(testing::Message() << "seed 0x" << std::hex << seed);
    const SynopsisDescriptor<FlajoletMartin> descriptor =
        DistinctSketchDescriptor(kDefaultSketchMaps);
    const std::vector<Value> stream =
        ZipfValues(kStreamLength, kDomain, 0.5, seed);
    const FlajoletMartin sketch = BuildFromStream(descriptor, stream, seed);
    const FrozenView view(descriptor.spec_builder(sketch));
    QueryContext ctx;

    EXPECT_TRUE(view.Answers(QueryKind::kDistinct));
    ExpectEstimateEq(descriptor.answers.distinct(sketch, ctx),
                     view.DistinctAnswer());
    return !testing::Test::HasFailure();
  });
}

}  // namespace
}  // namespace aqua
