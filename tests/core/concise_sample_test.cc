#include "core/concise_sample.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "workload/generators.h"

namespace aqua {
namespace {

ConciseSampleOptions Opts(Words bound, std::uint64_t seed,
                          bool skip = true) {
  ConciseSampleOptions o;
  o.footprint_bound = bound;
  o.seed = seed;
  o.use_skip_counting = skip;
  return o;
}

std::vector<ValueCount> SortedEntries(const ConciseSample& s) {
  std::vector<ValueCount> entries = s.Entries();
  std::sort(entries.begin(), entries.end(),
            [](const ValueCount& a, const ValueCount& b) {
              return a.value < b.value;
            });
  return entries;
}

TEST(ConciseSampleTest, DrainKeepsThresholdAndStream) {
  // Drain() hands over the contents and leaves an empty sample at the same
  // threshold, on the same random stream with the same pending skip: fed
  // the same suffix, it selects exactly the points an undrained twin does.
  const std::vector<ValueCount> held = {{1, 3}, {2, 1}, {3, 2}};
  ConciseSample original =
      ConciseSample::Restore(Opts(1000, 5), 4.0, 40, held).ValueOrDie();
  original.InsertBatch(ZipfValues(400, 50, 1.0, 6));
  ConciseSample twin = original;

  const ConciseSample drained = original.Drain();
  EXPECT_EQ(SortedEntries(drained), SortedEntries(twin));
  EXPECT_EQ(drained.ObservedInserts(), twin.ObservedInserts());
  EXPECT_DOUBLE_EQ(drained.Threshold(), 4.0);
  EXPECT_EQ(original.SampleSize(), 0);
  EXPECT_EQ(original.Footprint(), 0);
  EXPECT_EQ(original.ObservedInserts(), 0);
  EXPECT_DOUBLE_EQ(original.Threshold(), 4.0);
  EXPECT_TRUE(original.Validate().ok());

  // Distinct suffix values and far fewer selections than the bound:
  // neither sample raises its threshold, so their selections coincide.
  constexpr Value kSuffixBase = 1000000;
  std::vector<Value> suffix(2000);
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    suffix[i] = kSuffixBase + static_cast<Value>(i);
  }
  original.InsertBatch(suffix);
  twin.InsertBatch(suffix);
  ASSERT_DOUBLE_EQ(twin.Threshold(), 4.0);
  std::vector<ValueCount> twin_suffix;
  for (const ValueCount& e : SortedEntries(twin)) {
    if (e.value >= kSuffixBase) twin_suffix.push_back(e);
  }
  EXPECT_FALSE(twin_suffix.empty());
  EXPECT_EQ(SortedEntries(original), twin_suffix);
  EXPECT_EQ(original.ObservedInserts(), 2000);
  EXPECT_TRUE(original.Validate().ok());
}

TEST(ConciseSampleTest, EmptySample) {
  ConciseSample s(Opts(100, 1));
  EXPECT_EQ(s.SampleSize(), 0);
  EXPECT_EQ(s.Footprint(), 0);
  EXPECT_EQ(s.DistinctValues(), 0);
  EXPECT_DOUBLE_EQ(s.Threshold(), 1.0);
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_EQ(s.Name(), "concise-sample");
}

TEST(ConciseSampleTest, StartupPhaseKeepsEverything) {
  // Until the footprint bound is hit, τ stays 1 and the sample is the exact
  // data (in concise form).
  ConciseSample s(Opts(1000, 2));
  for (Value v = 0; v < 100; ++v) s.Insert(v % 10);
  EXPECT_EQ(s.SampleSize(), 100);
  EXPECT_EQ(s.DistinctValues(), 10);
  EXPECT_EQ(s.PairCount(), 10);
  EXPECT_EQ(s.Footprint(), 20);
  EXPECT_DOUBLE_EQ(s.Threshold(), 1.0);
  EXPECT_EQ(s.CountOf(3), 10);
  EXPECT_EQ(s.CountOf(12345), 0);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(ConciseSampleTest, ExactHistogramWhenAllValuesFit) {
  // §3: "if there are at most m/2 distinct values for R.A, then a concise
  // sample of sample-size n has a footprint at most m" — the sample is the
  // exact histogram and the threshold never rises.
  ConciseSample s(Opts(1000, 3));
  const std::vector<Value> data = ZipfValues(50000, 400, 1.5, 99);
  for (Value v : data) s.Insert(v);
  EXPECT_EQ(s.SampleSize(), 50000);
  EXPECT_DOUBLE_EQ(s.Threshold(), 1.0);
  EXPECT_LE(s.Footprint(), 800);
  EXPECT_EQ(s.Cost().threshold_raises, 0);
  // Zero coin flips: every insert is deterministic at τ = 1 (§3.3's
  // observation for zipf > 2: "exactly one lookup and zero coin flips").
  EXPECT_EQ(s.Cost().coin_flips, 0);
  EXPECT_EQ(s.Cost().lookups, 50000);
  EXPECT_TRUE(s.Validate().ok());
}

TEST(ConciseSampleTest, FootprintNeverExceedsBound) {
  ConciseSample s(Opts(100, 4));
  const std::vector<Value> data = ZipfValues(100000, 5000, 1.0, 100);
  for (Value v : data) {
    s.Insert(v);
    ASSERT_LE(s.Footprint(), 100);
  }
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_GT(s.Cost().threshold_raises, 0);
  EXPECT_GT(s.Threshold(), 1.0);
}

TEST(ConciseSampleTest, SampleSizeAtLeastDistinctValues) {
  ConciseSample s(Opts(200, 5));
  for (Value v : ZipfValues(50000, 1000, 1.25, 101)) s.Insert(v);
  EXPECT_GE(s.SampleSize(), s.DistinctValues());
  // Footprint accounting identity from Definition 2.
  EXPECT_EQ(s.Footprint(), s.DistinctValues() + s.PairCount());
}

TEST(ConciseSampleTest, SkewGrowsSampleSizeBeyondFootprint) {
  // Lemma 1 direction: a skewed stream packs many sample points per word.
  // At zipf 1.5 / D=500 / m=100 the paper's Figure-4 run measured a 3.8×
  // gain (sample-size 388); zipf 2.0 gives an order of magnitude.
  ConciseSample moderate(Opts(100, 6));
  for (Value v : ZipfValues(500000, 500, 1.5, 102)) moderate.Insert(v);
  EXPECT_GT(moderate.SampleSize(), 3 * moderate.Footprint());
  EXPECT_TRUE(moderate.Validate().ok());

  ConciseSample high(Opts(100, 6));
  for (Value v : ZipfValues(500000, 500, 2.0, 102)) high.Insert(v);
  EXPECT_GT(high.SampleSize(), 10 * high.Footprint());
  EXPECT_TRUE(high.Validate().ok());
}

TEST(ConciseSampleTest, UniformDataSampleSizeNearFootprint) {
  // With no duplication in the sample, concise ≈ traditional (§3.3: "no
  // noticeable gains" at low skew with high D/m).
  ConciseSample s(Opts(100, 7));
  for (Value v : ZipfValues(200000, 50000, 0.0, 103)) s.Insert(v);
  EXPECT_LT(s.SampleSize(), 150);
  EXPECT_GE(s.SampleSize(), 80);
}

TEST(ConciseSampleTest, ThresholdIsMonotoneNondecreasing) {
  ConciseSample s(Opts(64, 8));
  double last = s.Threshold();
  for (Value v : ZipfValues(50000, 2000, 0.5, 104)) {
    s.Insert(v);
    ASSERT_GE(s.Threshold(), last);
    last = s.Threshold();
  }
}

TEST(ConciseSampleTest, ExpectedSampleSizeTracksNOverTau) {
  // E[sample-size] = n / τ for the final threshold (each tuple is in the
  // sample with probability 1/τ, Theorem 2).
  ConciseSample s(Opts(500, 9));
  const std::vector<Value> data = ZipfValues(300000, 3000, 1.0, 105);
  for (Value v : data) s.Insert(v);
  const double expected =
      static_cast<double>(data.size()) / s.Threshold();
  EXPECT_NEAR(static_cast<double>(s.SampleSize()), expected,
              0.35 * expected);
}

TEST(ConciseSampleTest, EntriesMatchAccessors) {
  ConciseSample s(Opts(100, 10));
  for (Value v : ZipfValues(20000, 500, 1.2, 106)) s.Insert(v);
  const std::vector<ValueCount> entries = s.Entries();
  EXPECT_EQ(static_cast<std::int64_t>(entries.size()), s.DistinctValues());
  EXPECT_EQ(SampleSizeOf(entries), s.SampleSize());
  EXPECT_EQ(FootprintOf(entries), s.Footprint());
  for (const ValueCount& e : entries) {
    EXPECT_EQ(s.CountOf(e.value), e.count);
  }
}

TEST(ConciseSampleTest, ToPointSampleExpandsCounts) {
  ConciseSample s(Opts(50, 11));
  for (Value v : ZipfValues(10000, 100, 1.5, 107)) s.Insert(v);
  const std::vector<Value> points = s.ToPointSample();
  EXPECT_EQ(static_cast<std::int64_t>(points.size()), s.SampleSize());
  // Point multiplicities must match entry counts.
  for (const ValueCount& e : s.Entries()) {
    EXPECT_EQ(std::count(points.begin(), points.end(), e.value), e.count);
  }
}

TEST(ConciseSampleTest, DeterministicForFixedSeed) {
  ConciseSample a(Opts(100, 12)), b(Opts(100, 12));
  for (Value v : ZipfValues(50000, 1000, 1.0, 108)) {
    a.Insert(v);
    b.Insert(v);
  }
  EXPECT_EQ(a.SampleSize(), b.SampleSize());
  EXPECT_EQ(a.Footprint(), b.Footprint());
  EXPECT_DOUBLE_EQ(a.Threshold(), b.Threshold());
  auto ea = a.Entries(), eb = b.Entries();
  auto by_value = [](const ValueCount& x, const ValueCount& y) {
    return x.value < y.value;
  };
  std::sort(ea.begin(), ea.end(), by_value);
  std::sort(eb.begin(), eb.end(), by_value);
  EXPECT_EQ(ea, eb);
}

TEST(ConciseSampleTest, SkipAndNaiveModesAgreeStatistically) {
  // The skip-counting economization must not change the distribution;
  // compare mean sample-sizes across seeds.
  const std::vector<Value> data = ZipfValues(50000, 1000, 1.0, 109);
  double mean_skip = 0.0, mean_naive = 0.0;
  constexpr int kTrials = 12;
  for (int t = 0; t < kTrials; ++t) {
    ConciseSample skip(Opts(200, 500 + static_cast<std::uint64_t>(t), true));
    ConciseSample naive(
        Opts(200, 900 + static_cast<std::uint64_t>(t), false));
    for (Value v : data) {
      skip.Insert(v);
      naive.Insert(v);
    }
    mean_skip += static_cast<double>(skip.SampleSize());
    mean_naive += static_cast<double>(naive.SampleSize());
    ASSERT_TRUE(skip.Validate().ok());
    ASSERT_TRUE(naive.Validate().ok());
  }
  mean_skip /= kTrials;
  mean_naive /= kTrials;
  EXPECT_NEAR(mean_skip, mean_naive, 0.2 * mean_naive);
}

TEST(ConciseSampleTest, SkipModeUsesFarFewerFlipsThanNaive) {
  const std::vector<Value> data = ZipfValues(100000, 2000, 1.0, 110);
  ConciseSample skip(Opts(200, 13, true));
  ConciseSample naive(Opts(200, 13, false));
  for (Value v : data) {
    skip.Insert(v);
    naive.Insert(v);
  }
  EXPECT_LT(skip.Cost().coin_flips, naive.Cost().coin_flips / 5);
}

TEST(ConciseSampleTest, LookupsOnlyOnSelectedInserts) {
  ConciseSample s(Opts(100, 14));
  for (Value v : ZipfValues(200000, 5000, 0.0, 111)) s.Insert(v);
  // Lookups << inserts once the threshold grows (Table 1's lookup column).
  EXPECT_LT(s.Cost().lookups, 20000);
  EXPECT_GT(s.Cost().lookups, 100);
}

TEST(ConciseSampleTest, MinimumFootprintBoundIsEnforced) {
  EXPECT_DEATH({ ConciseSample s(Opts(1, 15)); (void)s; }, "at least 2");
}

TEST(ConciseSampleTest, CustomPolicyIsUsed) {
  ConciseSampleOptions o = Opts(100, 16);
  o.policy = std::make_shared<MultiplicativeThresholdPolicy>(2.0);
  ConciseSample s(o);
  for (Value v : ZipfValues(100000, 5000, 0.5, 112)) s.Insert(v);
  // Doubling policy reaches a given threshold in far fewer raises than 1.1×.
  ConciseSample default_s(Opts(100, 16));
  for (Value v : ZipfValues(100000, 5000, 0.5, 112)) default_s.Insert(v);
  EXPECT_LT(s.Cost().threshold_raises,
            default_s.Cost().threshold_raises / 2);
  EXPECT_TRUE(s.Validate().ok());
}

}  // namespace
}  // namespace aqua
