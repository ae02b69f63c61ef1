#include "warehouse/catalog.h"

#include <cmath>

#include "common/check.h"
#include "plan/planner.h"
#include "random/xoshiro256.h"

namespace aqua {

namespace {
// A synopsis below this many words is useless; Seal() rejects budgets that
// would starve an attribute.
constexpr Words kMinShare = 16;
}  // namespace

SynopsisCatalog::SynopsisCatalog(Words total_budget_words,
                                 std::uint64_t seed)
    : SynopsisCatalog(total_budget_words, CatalogOptions{.seed = seed}) {}

SynopsisCatalog::SynopsisCatalog(Words total_budget_words,
                                 const CatalogOptions& options)
    : budget_(total_budget_words), options_(options) {
  AQUA_CHECK_GE(total_budget_words, kMinShare);
  AQUA_CHECK_GE(options.shards, std::size_t{1});
}

Status SynopsisCatalog::RegisterAttribute(const std::string& name,
                                          const AttributeOptions& options) {
  if (sealed_) {
    return Status::FailedPrecondition(
        "catalog already sealed; register attributes first");
  }
  if (name.empty()) {
    return Status::InvalidArgument("attribute name must be non-empty");
  }
  if (!std::isfinite(options.weight) || options.weight <= 0.0) {
    return Status::InvalidArgument(
        "attribute weight must be positive and finite");
  }
  if (attributes_.contains(name)) {
    return Status::AlreadyExists("attribute already registered: " + name);
  }
  Attribute attribute;
  attribute.options = options;
  attributes_.emplace(name, std::move(attribute));
  return Status::OK();
}

Status SynopsisCatalog::Seal() {
  if (sealed_) return Status::FailedPrecondition("catalog already sealed");
  if (attributes_.empty()) {
    return Status::FailedPrecondition("no attributes registered");
  }
  double total_weight = 0.0;
  for (const auto& [name, attribute] : attributes_) {
    total_weight += attribute.options.weight;
  }
  if (!std::isfinite(total_weight)) {
    return Status::InvalidArgument("attribute weights overflow their sum");
  }
  // Budget carve per attribute: the weighted share is first charged the
  // fixed sketch words (the FM sketch's footprint does not scale with its
  // bound), then divided equally among the selected sample synopses;
  // sharded (mergeable) synopses split their per-synopsis slice across
  // shards so the attribute's ingest side stays within its share.  A
  // published epoch holds one more shard's bound on top (the handles'
  // footprints count it).
  std::uint64_t seed = options_.seed;
  for (auto& [name, attribute] : attributes_) {
    const double fraction = attribute.options.weight / total_weight;
    const auto share = static_cast<Words>(
        std::floor(fraction * static_cast<double>(budget_)));
    Words sample_words = share;
    if (attribute.options.maintain_distinct_sketch) {
      if (share < kDefaultSketchWords) {
        return Status::ResourceExhausted(
            "budget too small for attribute " + name + ": the sketch alone "
            "needs " + std::to_string(kDefaultSketchWords) + " words");
      }
      sample_words -= kDefaultSketchWords;
    }
    int synopses = 0;
    synopses += attribute.options.maintain_traditional ? 1 : 0;
    synopses += attribute.options.maintain_concise ? 1 : 0;
    synopses += attribute.options.maintain_counting ? 1 : 0;
    synopses += attribute.options.maintain_full_histogram ? 1 : 0;
    if (synopses == 0 && !attribute.options.maintain_distinct_sketch) {
      return Status::InvalidArgument("attribute " + name +
                                     " maintains no synopses");
    }
    BuiltinBounds bounds;
    if (synopses > 0) {
      const Words per_synopsis = sample_words / synopses;
      const auto shards = static_cast<Words>(options_.shards);
      const bool has_sharded = attribute.options.maintain_traditional ||
                               attribute.options.maintain_concise;
      const Words per_shard = per_synopsis / shards;
      const Words smallest = has_sharded ? per_shard : per_synopsis;
      if (smallest < kMinShare) {
        return Status::ResourceExhausted(
            "budget too small for attribute " + name + ": " +
            std::to_string(smallest) + " words per synopsis");
      }
      bounds.single = per_synopsis;
      bounds.sharded = per_shard;
    }
    attribute.share = share;
    SynopsisRegistry::Options registry_options;
    registry_options.shards = options_.shards;
    registry_options.seed = SplitMix64Next(seed);
    registry_options.cache_max_stale_ops = options_.cache_max_stale_ops;
    registry_options.cache_max_stale_interval =
        options_.cache_max_stale_interval;
    registry_options.external_refresh = options_.external_refresh;
    attribute.registry = std::make_unique<SynopsisRegistry>(registry_options);
    AQUA_RETURN_NOT_OK(
        RegisterBuiltinSynopses(*attribute.registry, attribute.options,
                                bounds));
    if (attribute.options.maintain_full_histogram) {
      AQUA_RETURN_NOT_OK(attribute.registry->Register(
          FullHistogramDescriptor(bounds.single)));
    }
  }
  sealed_ = true;
  return Status::OK();
}

Result<const SynopsisRegistry*> SynopsisCatalog::RegistryFor(
    std::string_view attribute) const {
  if (!sealed_) return Status::FailedPrecondition("catalog not sealed");
  auto it = attributes_.find(attribute);
  if (it == attributes_.end()) {
    return Status::NotFound("unknown attribute: " + std::string(attribute));
  }
  return it->second.registry.get();
}

Result<SynopsisRegistry*> SynopsisCatalog::MutableRegistryFor(
    const std::string& attribute) {
  if (!sealed_) return Status::FailedPrecondition("catalog not sealed");
  auto it = attributes_.find(attribute);
  if (it == attributes_.end()) {
    return Status::NotFound("unknown attribute: " + attribute);
  }
  return it->second.registry.get();
}

Status SynopsisCatalog::Observe(const std::string& attribute,
                                const StreamOp& op) {
  AQUA_ASSIGN_OR_RETURN(SynopsisRegistry* r, MutableRegistryFor(attribute));
  return r->Observe(op);
}

Status SynopsisCatalog::ObserveBatch(const std::string& attribute,
                                     std::span<const StreamOp> ops) {
  AQUA_ASSIGN_OR_RETURN(SynopsisRegistry* r, MutableRegistryFor(attribute));
  return r->ObserveBatch(ops);
}

Status SynopsisCatalog::InsertBatch(const std::string& attribute,
                                    std::span<const Value> values) {
  AQUA_ASSIGN_OR_RETURN(SynopsisRegistry* r, MutableRegistryFor(attribute));
  r->InsertBatch(values);
  return Status::OK();
}

const SynopsisRegistry* SynopsisCatalog::registry(
    std::string_view attribute) const {
  auto it = attributes_.find(attribute);
  if (it == attributes_.end()) return nullptr;
  return it->second.registry.get();
}

Status SynopsisCatalog::HotListForInto(
    std::string_view attribute, const HotListQuery& query,
    QueryResponse<HotList>* response) const {
  AQUA_ASSIGN_OR_RETURN(const SynopsisRegistry* r, RegistryFor(attribute));
  RunPlannedHotListInto(
      *r, {.kind = QueryKind::kHotList, .k = query.k, .beta = query.beta},
      response);
  return Status::OK();
}

Result<QueryResponse<Estimate>> SynopsisCatalog::FrequencyFor(
    std::string_view attribute, Value value) const {
  AQUA_ASSIGN_OR_RETURN(const SynopsisRegistry* r, RegistryFor(attribute));
  return RunPlannedEstimate(*r,
                            {.kind = QueryKind::kFrequency, .value = value});
}

Result<QueryResponse<Estimate>> SynopsisCatalog::CountWhereFor(
    std::string_view attribute, const ValueRange& range,
    double confidence) const {
  AQUA_ASSIGN_OR_RETURN(const SynopsisRegistry* r, RegistryFor(attribute));
  return RunPlannedEstimate(*r, {.kind = QueryKind::kCountWhere,
                                 .range = range,
                                 .bound = {.confidence = confidence}});
}

Result<QueryResponse<Estimate>> SynopsisCatalog::DistinctFor(
    std::string_view attribute) const {
  AQUA_ASSIGN_OR_RETURN(const SynopsisRegistry* r, RegistryFor(attribute));
  return RunPlannedEstimate(*r, {.kind = QueryKind::kDistinct});
}

Result<QueryResponse<Estimate>> SynopsisCatalog::QuantileFor(
    std::string_view attribute, double q, double confidence) const {
  AQUA_ASSIGN_OR_RETURN(const SynopsisRegistry* r, RegistryFor(attribute));
  return RunPlannedEstimate(*r, {.kind = QueryKind::kQuantile,
                                 .q = q,
                                 .bound = {.confidence = confidence}});
}

Status SynopsisCatalog::StatsForInto(std::string_view attribute,
                                     RegistryStats* out) const {
  AQUA_ASSIGN_OR_RETURN(const SynopsisRegistry* r, RegistryFor(attribute));
  r->GetStatsInto(out);
  return Status::OK();
}

Words SynopsisCatalog::TotalFootprint() const {
  Words total = 0;
  for (const auto& [name, attribute] : attributes_) {
    if (attribute.registry) total += attribute.registry->TotalFootprint();
  }
  return total;
}

void SynopsisCatalog::SettleCaches() const {
  for (const auto& [name, attribute] : attributes_) {
    if (attribute.registry) attribute.registry->SettleCaches();
  }
}

std::vector<std::string> SynopsisCatalog::AttributeNames() const {
  std::vector<std::string> names;
  names.reserve(attributes_.size());
  for (const auto& [name, attribute] : attributes_) names.push_back(name);
  return names;
}

Words SynopsisCatalog::ShareOf(std::string_view attribute) const {
  auto it = attributes_.find(attribute);
  return it == attributes_.end() ? 0 : it->second.share;
}

}  // namespace aqua
