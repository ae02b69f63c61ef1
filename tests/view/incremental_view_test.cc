// Bit-identity of the incremental (delta-patched) FrozenView build against
// a full rebuild from the same Spec.  The patch constructor keeps the
// previous epoch's orderings and linear-merges a sorted delta; because
// values are unique keys and both comparators are total orders, the merged
// sequences must equal the full sort's output *exactly* — orderings,
// prefix sums, moments and every answer byte.  These are structural
// assertions with no failure budget: they hold on every seed, every churn
// shape, and on both sides of the fallback threshold.

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/concise_sample.h"
#include "estimate/aggregates.h"
#include "property/seed_sweep.h"
#include "sample/capabilities.h"
#include "view/frozen_view.h"
#include "view/view_builders.h"
#include "workload/generators.h"

namespace aqua {
namespace {

void ExpectViewsBitIdentical(const FrozenView& full,
                             const FrozenView& patched) {
  ASSERT_EQ(full.entry_count(), patched.entry_count());
  ASSERT_EQ(full.sample_size(), patched.sample_size());
  EXPECT_EQ(full.observed_inserts(), patched.observed_inserts());

  const auto fv = full.ByValueOrder();
  const auto pv = patched.ByValueOrder();
  ASSERT_EQ(fv.size(), pv.size());
  for (std::size_t i = 0; i < fv.size(); ++i) {
    ASSERT_EQ(fv[i].value, pv[i].value) << "by_value[" << i << "]";
    ASSERT_EQ(fv[i].count, pv[i].count) << "by_value[" << i << "]";
  }

  const auto fc = full.ByCountDescOrder();
  const auto pc = patched.ByCountDescOrder();
  ASSERT_EQ(fc.size(), pc.size());
  for (std::size_t i = 0; i < fc.size(); ++i) {
    ASSERT_EQ(fc[i].value, pc[i].value) << "by_count_desc[" << i << "]";
    ASSERT_EQ(fc[i].count, pc[i].count) << "by_count_desc[" << i << "]";
  }

  const auto fp = full.PrefixSums();
  const auto pp = patched.PrefixSums();
  ASSERT_EQ(fp.size(), pp.size());
  for (std::size_t i = 0; i < fp.size(); ++i) {
    ASSERT_EQ(fp[i], pp[i]) << "prefix[" << i << "]";
  }

  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(full.MomentF(k), patched.MomentF(k)) << "F_" << k;
  }
  for (int kind = 0; kind < kNumQueryKinds; ++kind) {
    EXPECT_EQ(full.Answers(static_cast<QueryKind>(kind)),
              patched.Answers(static_cast<QueryKind>(kind)));
  }
}

void ExpectEstimateEq(const Estimate& a, const Estimate& b) {
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.ci_low, b.ci_low);
  EXPECT_EQ(a.ci_high, b.ci_high);
  EXPECT_EQ(a.confidence, b.confidence);
  EXPECT_EQ(a.sample_points, b.sample_points);
}

/// Estimator-parameter answers (not just structure): hot list, quantile
/// and range count through both views must agree bit-for-bit.
void ExpectAnswersBitIdentical(const FrozenView& full,
                               const FrozenView& patched, Value domain) {
  if (full.Answers(QueryKind::kHotList)) {
    for (const std::int64_t k : {0L, 1L, 10L, 1000000L}) {
      HotListQuery query;
      query.k = k;
      query.beta = 3.0;
      const HotList a = full.HotListAnswer(query);
      const HotList b = patched.HotListAnswer(query);
      ASSERT_EQ(a.size(), b.size()) << "hot list k=" << k;
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].value, b[i].value);
        EXPECT_EQ(a[i].estimated_count, b[i].estimated_count);
        EXPECT_EQ(a[i].synopsis_count, b[i].synopsis_count);
      }
    }
  }
  QueryContext ctx;
  ctx.observed_inserts = full.observed_inserts();
  if (full.Answers(QueryKind::kCountWhere)) {
    for (const ValueRange range :
         {ValueRange{1, domain}, ValueRange{domain / 3, domain / 2},
          ValueRange{domain + 1, domain + 9}}) {
      ExpectEstimateEq(full.CountWhereRangeAnswer(range, 0.95, ctx),
                       patched.CountWhereRangeAnswer(range, 0.95, ctx));
    }
  }
  if (full.Answers(QueryKind::kQuantile)) {
    for (const double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
      ExpectEstimateEq(full.QuantileAnswer(q, 0.95),
                       patched.QuantileAnswer(q, 0.95));
    }
  }
  if (full.Answers(QueryKind::kFrequency)) {
    for (const Value v : {Value{1}, domain / 2, domain + 5}) {
      ExpectEstimateEq(full.FrequencyAnswer(v, 0.95),
                       patched.FrequencyAnswer(v, 0.95));
    }
  }
}

/// A synthetic Spec over explicit entries, exercising every answer path
/// the concise view serves.
FrozenView::Spec MakeSpec(std::vector<ValueCount> entries) {
  FrozenView::Spec spec;
  spec.sample_size = SampleSizeOf(entries);
  spec.entries = std::move(entries);
  spec.observed_inserts = spec.sample_size * 3;
  FrozenView::HotListParams hot;
  hot.scale = static_cast<double>(spec.observed_inserts) /
              static_cast<double>(std::max<std::int64_t>(1, spec.sample_size));
  hot.offset = 0.0;
  spec.hot_list = hot;
  spec.count_where = true;
  spec.quantile = true;
  const std::int64_t m = spec.sample_size;
  const std::int64_t n = spec.observed_inserts;
  spec.frequency = [m, n](Count c, double confidence) {
    Estimate e;
    e.value = m > 0 ? static_cast<double>(c) * n / m : 0.0;
    e.ci_low = e.value * 0.9;
    e.ci_high = e.value * 1.1;
    e.confidence = confidence;
    e.sample_points = c;
    return e;
  };
  return spec;
}

/// The evolving truth the randomized rounds mutate: value -> count.
std::vector<ValueCount> ToEntries(const std::vector<Count>& counts) {
  std::vector<ValueCount> entries;
  for (std::size_t v = 0; v < counts.size(); ++v) {
    if (counts[v] > 0) {
      entries.push_back(
          {static_cast<Value>(v + 1), counts[v]});
    }
  }
  return entries;
}

TEST(IncrementalView, RandomizedChurnMatchesFullRebuildAcrossRounds) {
  // Ten epochs per seed with randomized add/change/remove churn.  The
  // scratch is reused across all rounds exactly as the registry handle
  // reuses it across refreshes.
  RunSeedSweep([](std::uint64_t seed) {
    SCOPED_TRACE(testing::Message() << "seed 0x" << std::hex << seed);
    std::mt19937_64 rng(seed);
    constexpr std::size_t kDomain = 600;
    std::vector<Count> counts(kDomain, 0);
    for (std::size_t v = 0; v < kDomain; ++v) {
      if (rng() % 2 == 0) counts[v] = 1 + static_cast<Count>(rng() % 50);
    }

    FrozenView::PatchScratch scratch;
    ViewPatchStats stats;
    // Epoch 0: no previous view exists; seed the chain with a full build
    // through the scratch (the handle's first FreezeEpoch does the same
    // via the plain constructor — here we need build_id continuity).
    FrozenView previous(MakeSpec(ToEntries(counts)), FrozenView(MakeSpec({})),
                        scratch, &stats);
    {
      const FrozenView full(MakeSpec(ToEntries(counts)));
      ExpectViewsBitIdentical(full, previous);
    }

    for (int round = 0; round < 10; ++round) {
      SCOPED_TRACE(testing::Message() << "round " << round);
      // Churn ~round% of the domain: adds, count changes, removes.
      const std::size_t touches = 1 + (rng() % (kDomain / 4));
      for (std::size_t t = 0; t < touches; ++t) {
        const std::size_t v = rng() % kDomain;
        switch (rng() % 3) {
          case 0:  // add or bump
            counts[v] += 1 + static_cast<Count>(rng() % 8);
            break;
          case 1:  // change
            if (counts[v] > 0) counts[v] = 1 + static_cast<Count>(rng() % 99);
            break;
          default:  // remove
            counts[v] = 0;
            break;
        }
      }
      const std::vector<ValueCount> entries = ToEntries(counts);
      const FrozenView full(MakeSpec(entries));
      FrozenView patched(MakeSpec(entries), previous, scratch, &stats);
      ExpectViewsBitIdentical(full, patched);
      ExpectAnswersBitIdentical(full, patched,
                                static_cast<Value>(kDomain));
      EXPECT_LE(stats.delta_fraction, 1.0);
      previous = std::move(patched);
    }
    return !testing::Test::HasFailure();
  });
}

TEST(IncrementalView, SmallDeltaTakesThePatchPath) {
  std::vector<Count> counts(500, 0);
  for (std::size_t v = 0; v < counts.size(); ++v) {
    counts[v] = 1 + static_cast<Count>(v % 7);
  }
  FrozenView::PatchScratch scratch;
  ViewPatchStats stats;
  FrozenView previous(MakeSpec(ToEntries(counts)), FrozenView(MakeSpec({})),
                      scratch, &stats);

  // Touch 5 of 500 values: the build must patch, not fall back.
  counts[3] += 2;
  counts[77] = 0;
  counts[140] += 1;
  counts[141] = 9;
  counts[499] += 4;
  const std::vector<ValueCount> entries = ToEntries(counts);
  const FrozenView full(MakeSpec(entries));
  const FrozenView patched(MakeSpec(entries), previous, scratch, &stats);

  EXPECT_FALSE(stats.full_sort) << "a 1% delta must take the patch path";
  EXPECT_LE(stats.delta_fraction, 0.05);
  EXPECT_GE(stats.delta_entries + stats.removed_entries, 4u);
  ExpectViewsBitIdentical(full, patched);
  ExpectAnswersBitIdentical(full, patched, 500);
}

TEST(IncrementalView, LargeDeltaFallsBackToFullSortAndStaysIdentical) {
  std::vector<Count> counts(300, 0);
  for (std::size_t v = 0; v < counts.size(); ++v) counts[v] = 2;
  FrozenView::PatchScratch scratch;
  ViewPatchStats stats;
  FrozenView previous(MakeSpec(ToEntries(counts)), FrozenView(MakeSpec({})),
                      scratch, &stats);

  // Rewrite (almost) everything: the delta exceeds half the entry set, so
  // the build must fall back to full sorts — and still match exactly.
  for (std::size_t v = 0; v < counts.size(); ++v) {
    counts[v] = 1 + static_cast<Count>((v * 13) % 31);
  }
  const std::vector<ValueCount> entries = ToEntries(counts);
  const FrozenView full(MakeSpec(entries));
  const FrozenView patched(MakeSpec(entries), previous, scratch, &stats);

  EXPECT_TRUE(stats.full_sort);
  ExpectViewsBitIdentical(full, patched);
  ExpectAnswersBitIdentical(full, patched, 300);
}

TEST(IncrementalView, StaleMirrorIsDetectedAndRebuilt) {
  // If `previous` is not the view this scratch last produced (build_id
  // mismatch), the mirror is silently wrong for it; the constructor must
  // rebuild it from previous.by_value_ rather than trust it.
  std::vector<Count> counts(200, 1);
  FrozenView::PatchScratch scratch;
  ViewPatchStats stats;
  const FrozenView through_scratch(MakeSpec(ToEntries(counts)),
                                   FrozenView(MakeSpec({})), scratch, &stats);

  // A different previous, built outside the scratch (plain constructor).
  counts[7] = 5;
  counts[8] = 0;
  const FrozenView outside(MakeSpec(ToEntries(counts)));
  ASSERT_NE(outside.build_id(), through_scratch.build_id());

  counts[9] += 2;
  const std::vector<ValueCount> entries = ToEntries(counts);
  const FrozenView full(MakeSpec(entries));
  const FrozenView patched(MakeSpec(entries), outside, scratch, &stats);
  ExpectViewsBitIdentical(full, patched);
}

TEST(IncrementalView, EmptyPreviousAndEmptyNextAreHandled) {
  FrozenView::PatchScratch scratch;
  ViewPatchStats stats;
  const FrozenView empty(MakeSpec({}));

  // empty -> populated: full sort fallback, identical.
  std::vector<ValueCount> entries = {{5, 3}, {1, 2}, {9, 1}};
  const FrozenView full(MakeSpec(entries));
  const FrozenView grown(MakeSpec(entries), empty, scratch, &stats);
  EXPECT_TRUE(stats.full_sort);
  ExpectViewsBitIdentical(full, grown);

  // populated -> empty: everything removed.
  const FrozenView full_empty(MakeSpec({}));
  const FrozenView shrunk(MakeSpec({}), grown, scratch, &stats);
  ExpectViewsBitIdentical(full_empty, shrunk);
}

TEST(IncrementalView, ConciseSampleSpecsPatchIdenticallyAcrossIngest) {
  // End-to-end over the real synopsis: a concise sample absorbing Zipf
  // increments, its Spec rebuilt per epoch exactly as FreezeEpoch does.
  RunSeedSweep([](std::uint64_t seed) {
    SCOPED_TRACE(testing::Message() << "seed 0x" << std::hex << seed);
    ConciseSampleOptions options;
    options.footprint_bound = 512;
    options.seed = seed;
    ConciseSample sample(options);

    FrozenView::PatchScratch scratch;
    ViewPatchStats stats;
    FrozenView previous(BuildConciseViewSpec(sample), FrozenView(MakeSpec({})),
                        scratch, &stats);
    const std::vector<Value> stream = ZipfValues(20000, 1500, 1.0, seed);
    std::size_t offset = 0;
    for (const std::size_t increment : {64UL, 512UL, 2048UL, 8192UL, 9184UL}) {
      SCOPED_TRACE(testing::Message() << "after +" << increment);
      for (std::size_t i = 0; i < increment && offset < stream.size(); ++i) {
        sample.Insert(stream[offset++]);
      }
      const FrozenView full(BuildConciseViewSpec(sample));
      FrozenView patched(BuildConciseViewSpec(sample), previous, scratch,
                         &stats);
      ExpectViewsBitIdentical(full, patched);
      ExpectAnswersBitIdentical(full, patched, 1500);
      previous = std::move(patched);
    }
    return !testing::Test::HasFailure();
  });
}

}  // namespace
}  // namespace aqua
