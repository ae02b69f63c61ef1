#ifndef AQUA_SERVER_SERVING_ENGINE_H_
#define AQUA_SERVER_SERVING_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "registry/builtin.h"
#include "registry/query_response.h"
#include "registry/registry.h"
#include "warehouse/engine.h"

namespace aqua {

/// Configuration of a ServingEngine.  The synopsis selection shares the
/// SynopsisSelection defaults with the warehouse engine; the serving
/// footprint bound applies per synopsis *per shard* (serving deliberately
/// over-provisions shards — the budget-enforcing path is SynopsisCatalog).
struct ServingEngineOptions : SynopsisSelection {
  /// Ingest shards per shardable synopsis.
  std::size_t shards = 8;
  /// Footprint bound per synopsis, in words.
  Words footprint_bound = 4096;
  std::uint64_t seed = 0x19980531ULL;
  /// Snapshot-cache staleness bounds (see SnapshotCache).
  std::int64_t cache_max_stale_ops = 8192;
  std::chrono::nanoseconds cache_max_stale_interval =
      std::chrono::milliseconds(100);
  /// Hand refresh ownership to a background epoch pump (--refresh-mode
  /// pump): query threads never re-merge a warmed snapshot cache; the
  /// pump's thread calls SettleCaches() on its own cadence instead.
  bool external_refresh = false;
};

/// The serving-layer counterpart of ApproximateAnswerEngine: safe under
/// concurrent ingest and queries, and with per-query cost independent of
/// the shard count.
///
/// Like the warehouse engine, this is a thin driver over one
/// SynopsisRegistry, whose handles each instantiate the machinery their
/// capabilities permit: the insert-only mergeable synopses
/// (concise/traditional) shard their ingest across per-lock shards, and
/// each refresh drains the shards into a copy of the previous epoch; the
/// rest (counting sample, FM sketch) stay single-instance behind one mutex
/// with copy-on-refresh snapshots.  Every query kind answers from
/// epoch-cached snapshots (SnapshotCache) through the planner
/// (RunPlannedQueryInto on registry()); deletes follow §4.1 per-synopsis
/// semantics and are refused entirely when no delete-capable synopsis is
/// maintained.
class ServingEngine {
 public:
  explicit ServingEngine(const ServingEngineOptions& options);

  /// Registers an additional synopsis the planner can answer from (call
  /// before ingest begins).
  template <RegistrableSynopsis S>
  Status RegisterSynopsis(SynopsisDescriptor<S> descriptor) {
    return registry_.Register(std::move(descriptor));
  }

  /// Ingests a batch of inserted values (thread-safe).
  void InsertBatch(std::span<const Value> values) {
    registry_.InsertBatch(values);
  }

  /// Ingests one delete (thread-safe).  Requires a delete-capable synopsis
  /// (the counting sample); invalidates concise-sample answers from this
  /// point on.
  Status Delete(Value value);

  /// Per-kind query adapters over RunPlannedQueryInto (plan/planner.h),
  /// each an unbounded plan on registry().  They remain for the benchmark
  /// replay only; everything else asks the planner directly.
  void HotListAnswerInto(const HotListQuery& query,
                         QueryResponse<HotList>* response) const;
  QueryResponse<Estimate> FrequencyAnswer(Value value) const;
  QueryResponse<Estimate> CountWhereAnswer(const ValueRange& range,
                                           double confidence = 0.95) const;
  QueryResponse<Estimate> DistinctValuesAnswer() const;
  QueryResponse<Estimate> QuantileAnswer(double q,
                                         double confidence = 0.95) const;

  struct Stats {
    std::int64_t inserts = 0;
    std::int64_t deletes = 0;
    bool concise_valid = true;
    std::size_t shards = 0;
    Words footprint_bound = 0;
    /// The registry's monotonic serving epoch (see
    /// SynopsisRegistry::ServingEpoch).
    std::uint64_t epoch = 0;
    std::vector<SynopsisHandleStats> synopses;
    /// Per-kind planner observability (chosen synopsis, latency EWMA,
    /// last achieved error) — see PlannerKindStats.
    std::array<PlannerKindStats, kNumQueryKinds> planner = {};
  };
  Stats GetStats() const;

  /// Out-param form of GetStats(): reuses `out`'s vectors and strings, so
  /// a warmed stats endpoint reports without allocating.
  void GetStatsInto(Stats* out) const;

  /// Forwards of the registry's serving-epoch surface (what the HTTP
  /// response cache keys on).
  std::uint64_t ServingEpoch() const { return registry_.ServingEpoch(); }
  bool AnyCacheStale() const { return registry_.AnyCacheStale(); }
  void SettleCaches() const { registry_.SettleCaches(); }

  const SynopsisRegistry& registry() const { return registry_; }
  /// Mutable access for the cluster layer: the aggregator role stages and
  /// applies shipped deltas against the serving registry (PrepareDeltaMerge
  /// / CompleteMergeRound), which need non-const handles.
  SynopsisRegistry* mutable_registry() { return &registry_; }

  std::int64_t observed_inserts() const {
    return registry_.observed_inserts();
  }
  std::int64_t observed_deletes() const {
    return registry_.observed_deletes();
  }

 private:
  ServingEngineOptions options_;
  SynopsisRegistry registry_;
};

}  // namespace aqua

#endif  // AQUA_SERVER_SERVING_ENGINE_H_
