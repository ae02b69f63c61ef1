#ifndef AQUA_WAREHOUSE_ENGINE_H_
#define AQUA_WAREHOUSE_ENGINE_H_

#include <cstdint>
#include <span>
#include <utility>

#include "registry/builtin.h"
#include "registry/registry.h"
#include "warehouse/full_histogram.h"
#include "workload/stream.h"

namespace aqua {

/// Which synopses the engine maintains for an attribute.  The synopsis
/// selection (and its defaults) is SynopsisSelection — one documented
/// default shared with the serving engine and the catalog.
struct EngineOptions : SynopsisSelection {
  /// Footprint bound per synopsis, in words.
  Words footprint_bound = 1000;
  std::uint64_t seed = 0x19980531ULL;
};

/// Registry descriptor for the exact full-histogram baseline (declared
/// here, next to FullHistogram, so the registry module does not depend on
/// warehouse/).  Hot lists only, accuracy class kAccuracyExact with a
/// zero error estimator; deletes apply exactly and fail on absent values.
SynopsisDescriptor<FullHistogram> FullHistogramDescriptor(
    Words footprint_bound);

/// The approximate answer engine of Figure 2: observes the load stream
/// alongside the warehouse, maintains its registered synopses entirely in
/// memory, and answers queries without any access to the base data.
///
/// This is a thin driver over a one-shard SynopsisRegistry with the
/// registry's default staleness bounds: the selected built-in synopses are
/// registered at construction and run the same ingest, epoch and frozen-view
/// path the server runs, with every op published at the next query's pin.
/// Queries go through the planner on registry() (RunPlannedQueryInto in
/// plan/planner.h; unbounded queries follow §6's accuracy ordering — hot
/// lists prefer the counting sample, then concise, then traditional);
/// bounded queries read the published epoch's predictions, so call
/// registry().SettleCaches() first.  Deletions flow to each synopsis per
/// its declared DeleteBehavior (§4.1: concise/traditional samples are
/// invalidated by the first delete; counting samples and the full
/// histogram apply it exactly).  A synopsis's state is read with
/// registry().StateCopy<S>(name).
class ApproximateAnswerEngine {
 public:
  explicit ApproximateAnswerEngine(const EngineOptions& options);

  /// Registers an additional synopsis the planner can answer from (call
  /// before the first Observe).
  template <RegistrableSynopsis S>
  Status RegisterSynopsis(SynopsisDescriptor<S> descriptor) {
    return registry_.Register(std::move(descriptor));
  }

  /// Observes one load-stream operation.
  Status Observe(const StreamOp& op) { return registry_.Observe(op); }

  /// Observes a whole slice of the load stream.  Maximal runs of
  /// consecutive inserts are routed through the synopses' batched fast
  /// paths (concise/traditional samples skip over unselected elements, one
  /// geometric jump each, instead of one virtual call per element);
  /// deletes are applied individually with the same semantics as
  /// Observe().  Statistically identical to observing op-by-op.
  Status ObserveBatch(std::span<const StreamOp> ops) {
    return registry_.ObserveBatch(ops);
  }

  /// The registry-backed core (capability introspection, stats, custom
  /// typed access).
  const SynopsisRegistry& registry() const { return registry_; }
  SynopsisRegistry& registry() { return registry_; }

  std::int64_t observed_inserts() const {
    return registry_.observed_inserts();
  }
  std::int64_t observed_deletes() const {
    return registry_.observed_deletes();
  }

  /// Total words across all maintained synopses.
  Words TotalFootprint() const { return registry_.TotalFootprint(); }

 private:
  SynopsisRegistry registry_;
};

}  // namespace aqua

#endif  // AQUA_WAREHOUSE_ENGINE_H_
