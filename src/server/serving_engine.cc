#include "server/serving_engine.h"

#include "common/check.h"
#include "plan/planner.h"

namespace aqua {

namespace {

SynopsisRegistry::Options RegistryOptions(
    const ServingEngineOptions& options) {
  SynopsisRegistry::Options registry_options;
  registry_options.shards = options.shards;
  registry_options.seed = options.seed;
  registry_options.cache_max_stale_ops = options.cache_max_stale_ops;
  registry_options.cache_max_stale_interval =
      options.cache_max_stale_interval;
  registry_options.external_refresh = options.external_refresh;
  return registry_options;
}

}  // namespace

ServingEngine::ServingEngine(const ServingEngineOptions& options)
    : options_(options), registry_(RegistryOptions(options)) {
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

Status ServingEngine::Delete(Value value) {
  if (!registry_.HasDeletable()) {
    return Status::FailedPrecondition(
        "deletes require the counting sample (concise samples cannot be "
        "maintained under deletions, §4.1)");
  }
  return registry_.Delete(value);
}

void ServingEngine::HotListAnswerInto(const HotListQuery& query,
                                      QueryResponse<HotList>* response) const {
  RunPlannedHotListInto(
      registry_,
      {.kind = QueryKind::kHotList, .k = query.k, .beta = query.beta},
      response);
}

QueryResponse<Estimate> ServingEngine::FrequencyAnswer(Value value) const {
  return RunPlannedEstimate(registry_,
                            {.kind = QueryKind::kFrequency, .value = value});
}

QueryResponse<Estimate> ServingEngine::CountWhereAnswer(
    const ValueRange& range, double confidence) const {
  return RunPlannedEstimate(registry_, {.kind = QueryKind::kCountWhere,
                                        .range = range,
                                        .bound = {.confidence = confidence}});
}

QueryResponse<Estimate> ServingEngine::DistinctValuesAnswer() const {
  return RunPlannedEstimate(registry_, {.kind = QueryKind::kDistinct});
}

QueryResponse<Estimate> ServingEngine::QuantileAnswer(
    double q, double confidence) const {
  return RunPlannedEstimate(registry_, {.kind = QueryKind::kQuantile,
                                        .q = q,
                                        .bound = {.confidence = confidence}});
}

ServingEngine::Stats ServingEngine::GetStats() const {
  Stats stats;
  GetStatsInto(&stats);
  return stats;
}

void ServingEngine::GetStatsInto(Stats* out) const {
  // Borrow out->synopses for the registry scratch so the per-handle
  // entries (and their name strings) keep their capacity across calls.
  RegistryStats registry_stats;
  registry_stats.synopses = std::move(out->synopses);
  registry_.GetStatsInto(&registry_stats);
  out->inserts = registry_stats.inserts;
  out->deletes = registry_stats.deletes;
  out->shards = options_.shards;
  out->footprint_bound = options_.footprint_bound;
  out->epoch = registry_.ServingEpoch();
  const SynopsisHandle* concise = registry_.handle(kConciseSynopsisName);
  out->concise_valid = concise != nullptr && concise->valid();
  out->synopses = std::move(registry_stats.synopses);
  out->planner = registry_stats.planner;
}

}  // namespace aqua
