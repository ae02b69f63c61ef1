#include "warehouse/engine.h"

#include <string>

#include "common/check.h"

namespace aqua {

namespace {

SynopsisRegistry::Options RegistryOptions(const EngineOptions& options) {
  SynopsisRegistry::Options registry_options;
  registry_options.seed = options.seed;
  return registry_options;
}

}  // namespace

SynopsisDescriptor<FullHistogram> FullHistogramDescriptor(
    Words footprint_bound) {
  SynopsisDescriptor<FullHistogram> descriptor;
  descriptor.name = std::string(kFullHistogramName);
  descriptor.on_delete = DeleteBehavior::kApplies;
  // The accuracy yardstick: exact answers, zero predicted error.
  descriptor.Declare(QueryKind::kHotList, kAccuracyExact,
                     [](const FullHistogram&, const QueryContext&, double) {
                       return 0.0;
                     });
  descriptor.factory = [footprint_bound](std::uint64_t) {
    return FullHistogram(footprint_bound);
  };
  descriptor.answers.hot_list = [](const FullHistogram& histogram,
                                   const HotListQuery& query,
                                   const QueryContext&) {
    return histogram.Report(query);
  };
  return descriptor;
}

ApproximateAnswerEngine::ApproximateAnswerEngine(const EngineOptions& options)
    : registry_(RegistryOptions(options)) {
  BuiltinBounds bounds;
  bounds.single = options.footprint_bound;
  bounds.sharded = options.footprint_bound;
  AQUA_CHECK(RegisterBuiltinSynopses(registry_, options, bounds).ok());
  if (options.maintain_full_histogram) {
    AQUA_CHECK(registry_
                   .Register(FullHistogramDescriptor(options.footprint_bound))
                   .ok());
  }
}

}  // namespace aqua
