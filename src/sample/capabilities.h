#ifndef AQUA_SAMPLE_CAPABILITIES_H_
#define AQUA_SAMPLE_CAPABILITIES_H_

#include <array>
#include <cstdint>

#include "common/types.h"

namespace aqua {

/// The query kinds an AQUA synopsis can answer (the paper's query classes:
/// hot lists §5, per-value frequencies §5.2, predicate counts §1.1,
/// distinct-value counts §2's [FM85] citation, and quantiles — one of §6's
/// "other concrete approximate answer scenarios" for uniform samples).
enum class QueryKind : int {
  kHotList = 0,
  kFrequency = 1,
  kCountWhere = 2,
  kDistinct = 3,
  kQuantile = 4,
};

inline constexpr int kNumQueryKinds = 5;

/// What a synopsis does when a delete arrives (§4.1).
enum class DeleteBehavior {
  /// Insert-only structure; deletes pass it by (the FM sketch — removing a
  /// value cannot clear a shared bitmap bit).
  kIgnores,
  /// Cannot be maintained under deletions; invalidated by the first delete
  /// so stale uniform samples are never served (concise/traditional
  /// samples, §4.1).
  kInvalidates,
  /// Applies the delete exactly (counting sample, Theorem 5; the full
  /// histogram).
  kApplies,
};

/// Accuracy-class value meaning "this synopsis does not answer that query
/// kind".
inline constexpr int kCannotAnswer = -1;

/// The static half of one query kind's cost/error model, as published
/// through SynopsisHandle::Capabilities(): where the synopsis sits in §6's
/// accuracy ordering (lower classes are more accurate and answer first when
/// a query carries no explicit bound; ties break by registration order).
/// The live half — the descriptor's error estimator evaluated on the
/// current state and the measured latency profile — is served by the
/// handle's PredictedError()/LatencyFor() because it changes per epoch.
struct KindModelInfo {
  int accuracy_class = kCannotAnswer;

  bool Answers() const { return accuracy_class != kCannotAnswer; }
};

/// Measured per-kind answer latency of one handle, split by serving path:
/// epoch-frozen FrozenView answers vs the descriptor's direct computation.
/// EWMAs of observed answer times (ns), fed by the registry's answer paths
/// and the planner; a path with zero observations has no profile yet and
/// the planner treats it as free (selection degenerates to the accuracy
/// ordering until profiles warm).
struct LatencyProfile {
  double view_ns = 0.0;
  double direct_ns = 0.0;
  std::int64_t view_observations = 0;
  std::int64_t direct_observations = 0;
};

/// Everything the registry needs to know about a synopsis besides how to
/// compute answers: delete semantics, concurrency-relevant traits (derived
/// from the synopsis type at registration), persistence, and the per-kind
/// model declarations implementing §6's "most accurate synopsis first"
/// ordering for unbounded queries.
struct SynopsisCapabilities {
  DeleteBehavior on_delete = DeleteBehavior::kIgnores;
  /// MergeFrom over disjoint substreams (gates sharded ingest).
  bool mergeable = false;
  /// Synopsis-level InsertBatch fast path.
  bool batch_insertable = false;
  /// Has a persist encode/decode codec.
  bool persistable = false;
  /// This handle instance shards its ingest (mergeable and drainable,
  /// deletes not applied).
  bool sharded = false;
  std::array<KindModelInfo, kNumQueryKinds> model = {};

  int AccuracyClass(QueryKind kind) const {
    return model[static_cast<int>(kind)].accuracy_class;
  }
  bool Answers(QueryKind kind) const {
    return model[static_cast<int>(kind)].Answers();
  }
};

/// Stream-level context an answer computation needs beyond the synopsis
/// itself.
struct QueryContext {
  /// Size n of the observed stream (scales sample estimates to the
  /// relation).
  std::int64_t observed_inserts = 0;
};

}  // namespace aqua

#endif  // AQUA_SAMPLE_CAPABILITIES_H_
