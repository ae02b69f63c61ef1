#ifndef AQUA_WAREHOUSE_CATALOG_H_
#define AQUA_WAREHOUSE_CATALOG_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "registry/builtin.h"
#include "registry/query_response.h"
#include "registry/registry.h"
#include "warehouse/engine.h"

namespace aqua {

/// Options for one attribute registered in the catalog.  The synopsis
/// selection shares the SynopsisSelection defaults with both engines.
struct AttributeOptions : SynopsisSelection {
  /// Relative share of the catalog's memory budget (default equal shares).
  double weight = 1.0;
};

/// Catalog-wide serving parameters.
struct CatalogOptions {
  std::uint64_t seed = 0x19980531ULL;
  /// Ingest shards per shardable synopsis per attribute.  Unlike the
  /// serving engine, the catalog *divides* each sharded synopsis's budget
  /// share across its shards, so the global budget holds regardless.
  std::size_t shards = 1;
  /// Snapshot-cache staleness bounds (see SnapshotCache).
  std::int64_t cache_max_stale_ops = 8192;
  std::chrono::nanoseconds cache_max_stale_interval =
      std::chrono::milliseconds(100);
  /// Hand refresh ownership to a background epoch pump (--refresh-mode
  /// pump): query threads never re-merge a warmed snapshot cache.
  bool external_refresh = false;
};

/// A catalog of per-attribute synopsis registries under one global memory
/// budget (§1: "To handle many base tables and many types of queries, a
/// large number of synopses may be needed", and memory "remains a precious
/// resource" — so footprints must be budgeted, not unbounded).
///
/// This is the multi-attribute serving surface: each registered attribute
/// gets a footprint share proportional to its weight, carved into
/// per-synopsis bounds at Seal(); ingest (Observe/ObserveBatch/
/// InsertBatch) routes by attribute name into concurrent registries, so
/// after Seal() the catalog is safe under concurrent ingest and queries,
/// and every query kind answers from the attribute's epoch-cached
/// snapshots exactly like ServingEngine (the planner on RegistryFor()).
class SynopsisCatalog {
 public:
  /// `total_budget_words`: memory words to divide across all attributes'
  /// synopses.  Attributes must be registered before the first Observe.
  SynopsisCatalog(Words total_budget_words, std::uint64_t seed);
  SynopsisCatalog(Words total_budget_words, const CatalogOptions& options);

  /// Registers an attribute; fails on duplicates or after observation
  /// started.  The per-attribute footprint is fixed when Seal() is called.
  Status RegisterAttribute(const std::string& name,
                           const AttributeOptions& options = {});

  /// Finalizes registration: computes each attribute's footprint share,
  /// carves out the fixed sketch words, divides the rest among the
  /// selected sample synopses (and their shards), and instantiates the
  /// registries.  Must be called once before Observe.
  Status Seal();

  /// Observes one operation on the named attribute (thread-safe after
  /// Seal).
  Status Observe(const std::string& attribute, const StreamOp& op);

  /// Observes a slice of the named attribute's load stream; insert runs
  /// take the batched fast paths.
  Status ObserveBatch(const std::string& attribute,
                      std::span<const StreamOp> ops);

  /// Ingests a batch of inserted values for one attribute.
  Status InsertBatch(const std::string& attribute,
                     std::span<const Value> values);

  /// The registry serving an attribute (null if unknown or not sealed).
  const SynopsisRegistry* registry(std::string_view attribute) const;

  /// The same lookup with its error: NotFound for unknown attributes,
  /// FailedPrecondition before Seal().  The attribute is looked up
  /// heterogeneously (no temporary std::string for a name sliced out of a
  /// URL).
  Result<const SynopsisRegistry*> RegistryFor(
      std::string_view attribute) const;

  /// Per-kind query adapters over RunPlannedQueryInto (plan/planner.h),
  /// each an unbounded plan on the attribute's registry, with
  /// RegistryFor's error contract.  They remain for the benchmark replay
  /// only; everything else asks the planner directly.
  Status HotListForInto(std::string_view attribute, const HotListQuery& query,
                        QueryResponse<HotList>* response) const;
  Result<QueryResponse<Estimate>> FrequencyFor(std::string_view attribute,
                                               Value value) const;
  Result<QueryResponse<Estimate>> CountWhereFor(
      std::string_view attribute, const ValueRange& range,
      double confidence = 0.95) const;
  Result<QueryResponse<Estimate>> DistinctFor(
      std::string_view attribute) const;
  Result<QueryResponse<Estimate>> QuantileFor(std::string_view attribute,
                                              double q,
                                              double confidence = 0.95) const;

  /// Per-attribute ingest counters and per-synopsis cache/footprint stats,
  /// filled into the caller's scratch in place, so a warmed stats endpoint
  /// reports with zero allocations.
  Status StatsForInto(std::string_view attribute, RegistryStats* out) const;

  /// Total words currently used across all registries (<= budget in
  /// words, per-synopsis bounds permitting).
  Words TotalFootprint() const;

  /// Refreshes every attribute's stale snapshot caches (see
  /// SynopsisRegistry::SettleCaches).
  void SettleCaches() const;

  Words budget() const { return budget_; }
  std::size_t attribute_count() const { return attributes_.size(); }
  bool sealed() const { return sealed_; }

  /// Registered attribute names, sorted.
  std::vector<std::string> AttributeNames() const;

  /// Footprint share assigned to an attribute (0 if unknown / unsealed).
  Words ShareOf(std::string_view attribute) const;

 private:
  struct Attribute {
    AttributeOptions options;
    Words share = 0;
    std::unique_ptr<SynopsisRegistry> registry;
  };

  Result<SynopsisRegistry*> MutableRegistryFor(const std::string& attribute);

  Words budget_;
  CatalogOptions options_;
  bool sealed_ = false;
  /// Transparent comparator: lookups by string_view without a temporary.
  std::map<std::string, Attribute, std::less<>> attributes_;
};

}  // namespace aqua

#endif  // AQUA_WAREHOUSE_CATALOG_H_
