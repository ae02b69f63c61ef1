#include "view/view_builders.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "estimate/frequency_estimator.h"
#include "hotlist/counting_hot_list.h"

namespace aqua {

FrozenView::Spec BuildConciseViewSpec(const ConciseSample& sample) {
  FrozenView::Spec spec;
  spec.entries = sample.Entries();
  spec.sample_size = sample.SampleSize();
  spec.observed_inserts = sample.ObservedInserts();
  // ConciseHotList: scale = n / sample-size, floor = the query's β.
  const auto n = static_cast<double>(sample.ObservedInserts());
  const auto m = static_cast<double>(sample.SampleSize());
  FrozenView::HotListParams hot;
  hot.scale = m > 0 ? n / m : 0.0;
  hot.offset = 0.0;
  hot.floor_is_beta = true;
  spec.hot_list = hot;
  spec.frequency = [sample_size = sample.SampleSize(),
                    observed = sample.ObservedInserts()](Count count,
                                                         double confidence) {
    return FrequencyEstimator::FromConciseCounts(count, sample_size, observed,
                                                 confidence);
  };
  spec.count_where = true;
  spec.quantile = true;
  return spec;
}

FrozenView::Spec BuildCountingViewSpec(const CountingSample& sample) {
  FrozenView::Spec spec;
  spec.entries = sample.Entries();
  // Not a uniform sample: Σ counts is the counted-occurrences total, and
  // count_where/quantile stay off, so no expanded-sample consistency is
  // implied.
  std::int64_t total = 0;
  for (const ValueCount& e : spec.entries) total += e.count;
  spec.sample_size = total;
  spec.observed_inserts = sample.ObservedInserts();
  // CountingHotList: all pairs with counts at least max(c_k, τ - ĉ),
  // augmented by ĉ (the §5.2 compensation); β is ignored.
  const double tau = sample.Threshold();
  const double c_hat = CountingHotList::Compensation(tau);
  FrozenView::HotListParams hot;
  hot.scale = 1.0;
  hot.offset = c_hat;
  hot.floor_is_beta = false;
  hot.fixed_floor = std::max(1.0, tau - c_hat);
  spec.hot_list = hot;
  spec.frequency = [tau, counted = sample.CountedOccurrences()](
                       Count count, double confidence) {
    return FrequencyEstimator::FromCountingCounts(count, tau, counted,
                                                  confidence);
  };
  return spec;
}

FrozenView::Spec BuildTraditionalViewSpec(const ReservoirSample& sample) {
  FrozenView::Spec spec;
  // Fold the reservoir's points into <value, count> entries — the same
  // semi-sort TraditionalHotList::Report does per query, now once per
  // epoch.
  std::vector<Value> points = sample.Points();
  std::sort(points.begin(), points.end());
  for (std::size_t i = 0; i < points.size();) {
    std::size_t j = i;
    while (j < points.size() && points[j] == points[i]) ++j;
    spec.entries.push_back(ValueCount{points[i], static_cast<Count>(j - i)});
    i = j;
  }
  spec.sample_size = sample.SampleSize();
  spec.observed_inserts = sample.ObservedInserts();
  const auto n = static_cast<double>(sample.ObservedInserts());
  const auto m = static_cast<double>(sample.SampleSize());
  FrozenView::HotListParams hot;
  hot.scale = m > 0 ? n / m : 0.0;
  hot.offset = 0.0;
  hot.floor_is_beta = true;
  spec.hot_list = hot;
  spec.count_where = true;
  spec.quantile = true;
  return spec;
}

FrozenView::Spec BuildDistinctSketchViewSpec(const FlajoletMartin& sketch) {
  FrozenView::Spec spec;
  spec.distinct = FmDistinctEstimate(sketch);
  return spec;
}

Estimate FmDistinctEstimate(const FlajoletMartin& sketch) {
  Estimate estimate;
  const double d = sketch.Estimate();
  estimate.value = d;
  // [FM85]'s asymptotic standard error is ≈ 0.78/sqrt(#maps) in log2
  // scale; expose a pragmatic ±2σ multiplicative band.
  const double sigma_log2 =
      0.78 / std::sqrt(static_cast<double>(sketch.num_maps()));
  estimate.ci_low = d * std::pow(2.0, -2.0 * sigma_log2);
  estimate.ci_high = d * std::pow(2.0, 2.0 * sigma_log2);
  estimate.confidence = 0.95;
  return estimate;
}

}  // namespace aqua
