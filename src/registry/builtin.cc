#include "registry/builtin.h"

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "estimate/frequency_estimator.h"
#include "estimate/quantiles.h"
#include "hotlist/concise_hot_list.h"
#include "hotlist/counting_hot_list.h"
#include "hotlist/traditional_hot_list.h"
#include "persist/snapshot.h"
#include "view/view_builders.h"

namespace aqua {

namespace {

/// Worst-case relative error of a uniform m-point sample at `confidence`:
/// z(c) / (2 sqrt(m)) — the Hoeffding-style half-width the paper's §6
/// experiments measure against.  An empty sample predicts nothing.
double UniformSampleError(std::int64_t m, double confidence) {
  if (m <= 0) return std::numeric_limits<double>::infinity();
  return SampleEstimator::NormalQuantile(confidence) /
         (2.0 * std::sqrt(static_cast<double>(m)));
}

}  // namespace

SynopsisDescriptor<ReservoirSample> TraditionalSampleDescriptor(
    Words footprint_bound) {
  SynopsisDescriptor<ReservoirSample> descriptor;
  descriptor.name = std::string(kTraditionalSynopsisName);
  descriptor.on_delete = DeleteBehavior::kInvalidates;
  const auto uniform_error = [](const ReservoirSample& sample,
                                const QueryContext&, double confidence) {
    return UniformSampleError(sample.SampleSize(), confidence);
  };
  descriptor.Declare(QueryKind::kHotList, kAccuracyTraditional,
                     uniform_error);
  descriptor.Declare(QueryKind::kCountWhere, kAccuracyTraditional,
                     uniform_error);
  descriptor.Declare(QueryKind::kQuantile, kAccuracyTraditional,
                     uniform_error);
  descriptor.factory = [footprint_bound](std::uint64_t seed) {
    return ReservoirSample(footprint_bound, seed);
  };
  descriptor.answers.hot_list = [](const ReservoirSample& sample,
                                   const HotListQuery& query,
                                   const QueryContext&) {
    return TraditionalHotList(sample).Report(query);
  };
  descriptor.answers.count_where =
      [](const ReservoirSample& sample, const ValuePredicate& pred,
         double confidence, const QueryContext& ctx) {
        SampleEstimator estimator(sample.Points(), ctx.observed_inserts);
        return estimator.CountWhere(pred, confidence);
      };
  descriptor.answers.quantile = [](const ReservoirSample& sample, double q,
                                   double confidence, const QueryContext&) {
    return QuantileEstimator(sample.Points())
        .QuantileWithBounds(q, confidence);
  };
  descriptor.spec_builder = [](const ReservoirSample& sample) {
    return BuildTraditionalViewSpec(sample);
  };
  descriptor.encode = [](const ReservoirSample& sample) {
    return EncodeSnapshot(sample);
  };
  descriptor.decode = [](const std::vector<std::uint8_t>& bytes,
                         std::uint64_t seed) {
    return DecodeReservoirSnapshot(bytes, seed);
  };
  return descriptor;
}

SynopsisDescriptor<ConciseSample> ConciseSampleDescriptor(
    Words footprint_bound) {
  SynopsisDescriptor<ConciseSample> descriptor;
  descriptor.name = std::string(kConciseSynopsisName);
  descriptor.on_delete = DeleteBehavior::kInvalidates;
  const auto concise_error = [](const ConciseSample& sample,
                                const QueryContext&, double confidence) {
    return UniformSampleError(sample.SampleSize(), confidence);
  };
  descriptor.Declare(QueryKind::kHotList, kAccuracyConcise, concise_error);
  descriptor.Declare(QueryKind::kFrequency, kAccuracyConcise, concise_error);
  // Preferred uniform sample for predicate counts and quantiles: largest
  // sample-size for the footprint (§1.1), hence the tightest interval.
  descriptor.Declare(QueryKind::kCountWhere, kAccuracyConcise,
                     concise_error);
  descriptor.Declare(QueryKind::kQuantile, kAccuracyConcise, concise_error);
  descriptor.factory = [footprint_bound](std::uint64_t seed) {
    ConciseSampleOptions options;
    options.footprint_bound = footprint_bound;
    options.seed = seed;
    return ConciseSample(options);
  };
  descriptor.answers.hot_list = [](const ConciseSample& sample,
                                   const HotListQuery& query,
                                   const QueryContext&) {
    return ConciseHotList(sample).Report(query);
  };
  descriptor.answers.frequency = [](const ConciseSample& sample, Value value,
                                    const QueryContext&) {
    return FrequencyEstimator::FromConcise(sample, value);
  };
  descriptor.answers.count_where =
      [](const ConciseSample& sample, const ValuePredicate& pred,
         double confidence, const QueryContext& ctx) {
        const std::vector<Value> points = sample.ToPointSample();
        SampleEstimator estimator(points, ctx.observed_inserts);
        return estimator.CountWhere(pred, confidence);
      };
  descriptor.answers.quantile = [](const ConciseSample& sample, double q,
                                   double confidence, const QueryContext&) {
    return QuantileEstimator(sample.ToPointSample())
        .QuantileWithBounds(q, confidence);
  };
  descriptor.spec_builder = [](const ConciseSample& sample) {
    return BuildConciseViewSpec(sample);
  };
  descriptor.encode = [](const ConciseSample& sample) {
    return EncodeSnapshot(sample);
  };
  descriptor.decode = [](const std::vector<std::uint8_t>& bytes,
                         std::uint64_t seed) {
    return DecodeConciseSnapshot(bytes, seed);
  };
  return descriptor;
}

SynopsisDescriptor<CountingSample> CountingSampleDescriptor(
    Words footprint_bound) {
  SynopsisDescriptor<CountingSample> descriptor;
  descriptor.name = std::string(kCountingSynopsisName);
  // Theorem 5: counting samples apply deletes exactly.
  descriptor.on_delete = DeleteBehavior::kApplies;
  // A counting sample's answers aggregate every counted occurrence, so its
  // effective sample size is the count total, not the footprint (§5.2's
  // "considerably more accurate" in live numbers).
  const auto counting_error = [](const CountingSample& sample,
                                 const QueryContext&, double confidence) {
    return UniformSampleError(sample.CountedOccurrences(), confidence);
  };
  descriptor.Declare(QueryKind::kHotList, kAccuracyCounting, counting_error);
  descriptor.Declare(QueryKind::kFrequency, kAccuracyCounting,
                     counting_error);
  descriptor.factory = [footprint_bound](std::uint64_t seed) {
    CountingSampleOptions options;
    options.footprint_bound = footprint_bound;
    options.seed = seed;
    return CountingSample(options);
  };
  descriptor.answers.hot_list = [](const CountingSample& sample,
                                   const HotListQuery& query,
                                   const QueryContext&) {
    return CountingHotList(sample).Report(query);
  };
  descriptor.answers.frequency = [](const CountingSample& sample,
                                    Value value, const QueryContext&) {
    return FrequencyEstimator::FromCounting(sample, value);
  };
  descriptor.spec_builder = [](const CountingSample& sample) {
    return BuildCountingViewSpec(sample);
  };
  descriptor.encode = [](const CountingSample& sample) {
    return EncodeSnapshot(sample);
  };
  descriptor.decode = [](const std::vector<std::uint8_t>& bytes,
                         std::uint64_t seed) {
    return DecodeCountingSnapshot(bytes, seed);
  };
  return descriptor;
}

SynopsisDescriptor<FlajoletMartin> DistinctSketchDescriptor(int num_maps) {
  SynopsisDescriptor<FlajoletMartin> descriptor;
  descriptor.name = std::string(kDistinctSketchName);
  // Removing a value cannot clear a shared bitmap bit; deletes pass by.
  descriptor.on_delete = DeleteBehavior::kIgnores;
  // [FM85]'s standard error with stochastic averaging: ~0.78 / sqrt(maps),
  // independent of confidence (the sketch reports a point estimate).
  descriptor.Declare(QueryKind::kDistinct, kAccuracyCounting,
                     [](const FlajoletMartin& sketch, const QueryContext&,
                        double) {
                       return 0.78 /
                              std::sqrt(static_cast<double>(
                                  sketch.num_maps() > 0 ? sketch.num_maps()
                                                        : 1));
                     });
  descriptor.factory = [num_maps](std::uint64_t seed) {
    return FlajoletMartin(num_maps, seed);
  };
  descriptor.answers.distinct = [](const FlajoletMartin& sketch,
                                   const QueryContext&) {
    // The arithmetic lives in FmDistinctEstimate (view/view_builders.h) so
    // the frozen view's precomputed estimate is bit-identical.
    return FmDistinctEstimate(sketch);
  };
  descriptor.spec_builder = [](const FlajoletMartin& sketch) {
    return BuildDistinctSketchViewSpec(sketch);
  };
  return descriptor;
}

Status RegisterBuiltinSynopses(SynopsisRegistry& registry,
                               const SynopsisSelection& selection,
                               const BuiltinBounds& bounds) {
  if (selection.maintain_traditional) {
    AQUA_RETURN_NOT_OK(
        registry.Register(TraditionalSampleDescriptor(bounds.sharded)));
  }
  if (selection.maintain_concise) {
    AQUA_RETURN_NOT_OK(
        registry.Register(ConciseSampleDescriptor(bounds.sharded)));
  }
  if (selection.maintain_counting) {
    AQUA_RETURN_NOT_OK(
        registry.Register(CountingSampleDescriptor(bounds.single)));
  }
  if (selection.maintain_distinct_sketch) {
    AQUA_RETURN_NOT_OK(
        registry.Register(DistinctSketchDescriptor(bounds.sketch_maps)));
  }
  return Status::OK();
}

}  // namespace aqua
