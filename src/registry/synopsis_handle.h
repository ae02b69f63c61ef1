#ifndef AQUA_REGISTRY_SYNOPSIS_HANDLE_H_
#define AQUA_REGISTRY_SYNOPSIS_HANDLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "concurrency/snapshot_cache.h"
#include "registry/answer_source.h"
#include "sample/capabilities.h"

namespace aqua {

/// Refresh observability for one handle: how its sharded epochs were
/// built and how the view patch builds have been going.
struct RefreshProfile {
  /// Sharded epochs built with no previous epoch to drain into.
  std::int64_t full_rebuilds = 0;
  /// Sharded epochs built by draining the shards into a copy of the
  /// previous epoch.
  std::int64_t incremental_rebuilds = 0;
  /// View builds that sorted the full entry set vs patched the previous
  /// epoch's orderings.
  std::int64_t view_full_builds = 0;
  std::int64_t view_patched_builds = 0;
  /// Entry-churn fraction the most recent view build absorbed.
  double last_view_delta_fraction = 1.0;
};

/// Type-erased ownership of one synopsis inside a SynopsisRegistry.
///
/// A handle wraps a concrete synopsis type together with its declared
/// capabilities (delete semantics, mergeability, persistence, the per-kind
/// cost/error model) and one concurrency path: it ingests through a
/// ShardedSynopsis (mergeable, drainable types that do not apply deletes;
/// each epoch is the previous one with the shards drained into it) or a
/// SharedSynopsis (everything else), and answers from a SnapshotCache of
/// published epochs.  Every method is thread-safe.  The registry only ever
/// talks to this interface — adding a synopsis type is a registration, not
/// an engine fork.
class SynopsisHandle {
 public:
  virtual ~SynopsisHandle() = default;

  /// Stable identifier; doubles as the response `method` tag.
  virtual std::string_view Name() const = 0;

  virtual const SynopsisCapabilities& Capabilities() const = 0;

  /// False once invalidated (DeleteBehavior::kInvalidates + a delete
  /// arrived, §4.1); an invalid handle ignores ingest and answers nothing.
  virtual bool valid() const = 0;

  /// Ingests a batch of inserted values.
  virtual void InsertBatch(std::span<const Value> values) = 0;

  /// Applies one delete per the declared DeleteBehavior: applies it
  /// exactly, invalidates the handle, or ignores it.
  virtual Status Delete(Value value) = 0;

  /// Ingest-progress report for the handle's snapshot cache.
  virtual void OnIngest(std::int64_t n) = 0;

  /// Current words of memory; 0 once invalidated.  A sharded handle
  /// counts its published epoch plus its shards.
  virtual Words Footprint() const = 0;

  /// Pins an answer source over the handle's epoch-cached snapshot
  /// (refreshing it first when past a staleness bound), constructed into
  /// the caller's inline buffer, so pinning never allocates.  Null when
  /// invalidated or no snapshot can be built.  The returned pointer is
  /// invalidated by the next Emplace() on `pinned`.  `allow_view` false
  /// forces the direct computation path (the planner's view-vs-direct
  /// choice); answers are bit-identical on both paths, only the cost
  /// differs.
  virtual const AnswerSource* PinInto(PinnedAnswerSource& pinned,
                                      bool allow_view) const = 0;
  const AnswerSource* PinInto(PinnedAnswerSource& pinned) const {
    return PinInto(pinned, /*allow_view=*/true);
  }

  /// The live half of the cost/error model (the static half — accuracy
  /// classes — is in Capabilities().model): the error the descriptor's
  /// estimator predicts for answering `kind` from the current state at
  /// `confidence`.  +infinity when the kind is not answered, the handle is
  /// invalidated, or no state has been published yet.  Never forces a
  /// snapshot refresh.
  virtual double PredictedError(QueryKind kind, const QueryContext& ctx,
                                double confidence) const = 0;

  /// Measured per-path answer latency for `kind` (EWMA of observed ns).
  virtual LatencyProfile LatencyFor(QueryKind kind) const = 0;

  /// Feeds one observed answer latency into the profile.  Const — called
  /// from the (const) answer paths; thread-safe.
  virtual void RecordLatency(QueryKind kind, bool via_view,
                             std::int64_t ns) const = 0;

  /// True when the current epoch's frozen view answers `kind` (the
  /// planner's view-path option exists).  False for unpublished epochs.
  virtual bool ViewAnswers(QueryKind kind) const = 0;

  /// Serialized state via the descriptor's persist codec; Unimplemented
  /// when the synopsis declared none.  Refreshes first and encodes the
  /// published epoch, so the bytes are exactly what queries read.
  virtual Result<std::vector<std::uint8_t>> EncodeState() const = 0;

  /// Replaces the handle's state from serialized bytes: the restored state
  /// is assigned into the ingest storage (shard 0 for sharded handles,
  /// which the next drain carries into the epoch — recovery runs before
  /// ingest, when the other shards and the epoch are empty).
  virtual Status RestoreState(const std::vector<std::uint8_t>& bytes) = 0;

  /// Stages a serialized delta (another node's EncodeState bytes) for
  /// merging into this handle's state: the bytes are decoded and validated
  /// NOW; the returned closure applies the MergeFrom when called.  The
  /// two-phase split lets the aggregator validate every blob in a frame
  /// before mutating anything — a half-applied frame could never be
  /// retried safely under (node, seq) dedup.  Unimplemented when the
  /// synopsis is unmergeable or has no persist codec.
  virtual Result<std::function<Status()>> PrepareDeltaMerge(
      const std::vector<std::uint8_t>& bytes) = 0;

  /// Epoch-cache observability.
  virtual std::uint64_t CacheEpoch() const = 0;
  virtual SnapshotCacheStats CacheStats() const = 0;
  /// True when the snapshot cache is past a staleness bound — the next
  /// query would refresh it and advance the epoch.
  virtual bool CacheIsStale() const = 0;
  /// Refreshes the snapshot cache now if it is past a staleness bound, so
  /// the serving epoch can settle without waiting for a query to touch
  /// this particular synopsis.  Refresh failures are ignored (the cache
  /// simply stays stale).
  virtual void SettleCache() const = 0;

  /// Frozen-view observability: whether the current epoch carries a
  /// read-optimized view, and what it cost to build (ns).  Zeros for
  /// unpublished epochs and synopses without a view builder.
  virtual bool HasView() const = 0;
  virtual std::int64_t ViewBuildNs() const = 0;

  /// Incremental-refresh observability (see RefreshProfile).
  virtual RefreshProfile GetRefreshProfile() const = 0;
};

}  // namespace aqua

#endif  // AQUA_REGISTRY_SYNOPSIS_HANDLE_H_
