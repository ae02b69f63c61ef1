#ifndef AQUA_REGISTRY_REGISTRY_H_
#define AQUA_REGISTRY_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "registry/typed_handle.h"
#include "workload/stream.h"

namespace aqua {

/// Per-handle observability snapshot (see SynopsisRegistry::GetStats).
struct SynopsisHandleStats {
  std::string name;
  bool valid = true;
  bool sharded = false;
  Words footprint = 0;
  std::uint64_t epoch = 0;
  SnapshotCacheStats cache;
  /// Whether the current epoch carries a frozen view, and the wall time
  /// its build added to the refresh.
  bool has_view = false;
  std::int64_t view_build_ns = 0;
  /// Incremental-refresh observability: delta merges, view patches, and
  /// the most recent delta fractions (see RefreshProfile).
  RefreshProfile refresh;
};

/// Per-kind planner observability: what an unbounded query of this kind
/// would currently choose, the chosen handle's measured latency profile,
/// and the error bound the planner last reported for the kind (-1 until a
/// planned query ran).
struct PlannerKindStats {
  /// Static kind name ("hotlist", "frequency", ...).
  std::string_view kind;
  /// Chosen synopsis name; "none" when nothing valid answers the kind.
  std::string_view synopsis = "none";
  bool available = false;
  /// EWMA answer latency of the chosen synopsis on the path an unbounded
  /// query would take (view when the epoch carries one); 0 until observed.
  double latency_ewma_ns = 0.0;
  double last_achieved_error = -1.0;
};

struct RegistryStats {
  std::int64_t inserts = 0;
  std::int64_t deletes = 0;
  std::vector<SynopsisHandleStats> synopses;
  std::array<PlannerKindStats, kNumQueryKinds> planner = {};
};

/// Static kind names, indexed by QueryKind (the /query and /stats wire
/// vocabulary).
std::string_view QueryKindName(QueryKind kind);

/// The registry-backed core every driver uses (ApproximateAnswerEngine,
/// ServingEngine, each SynopsisCatalog attribute, the cluster's delta
/// rounds): owns any number of type-erased synopsis handles, routes the
/// load stream to all of them, and keeps each query kind's candidate
/// handles in §6's accuracy order (per-kind cost/error models declared at
/// registration — never hand-maintained per engine again).  Queries go
/// through the planner (plan/planner.h): unbounded ones take the first
/// valid candidate, bounded ones score the candidates against each
/// handle's predicted error and measured latency.
///
/// Every registry is concurrent: ingest and queries may come from any
/// thread (handles shard or lock internally; counters are atomic), and
/// queries read published epochs.  With the default staleness bounds every
/// op is published at the next query's pin, so unbounded answers reflect
/// every op; predictions read the published epoch only, so bounded planning
/// follows an explicit SettleCaches().  Register() itself is never
/// thread-safe — register every synopsis before ingest/queries begin,
/// which is what every driver's constructor does.
class SynopsisRegistry {
 public:
  struct Options {
    /// Ingest shards per shardable synopsis.
    std::size_t shards = 1;
    /// Base of the per-handle seed chain (deterministic per registration
    /// order).
    std::uint64_t seed = 0x19980531ULL;
    /// Snapshot-cache staleness bounds (see SnapshotCache).  The defaults
    /// make any op stale the epoch and never go stale by time alone.
    std::int64_t cache_max_stale_ops = 1;
    std::chrono::nanoseconds cache_max_stale_interval =
        std::chrono::nanoseconds::zero();
    /// Hand refresh ownership to an external epoch pump (--refresh-mode
    /// pump): query-thread Get() never re-merges a warmed cache; the pump
    /// calls SettleCaches() on its own thread instead.
    bool external_refresh = false;
  };

  explicit SynopsisRegistry(const Options& options) : options_(options) {
    seed_chain_ = options.seed;
  }

  SynopsisRegistry(const SynopsisRegistry&) = delete;
  SynopsisRegistry& operator=(const SynopsisRegistry&) = delete;

  /// Registers a synopsis type under its descriptor.  Validates that the
  /// declared capabilities are coherent (kApplies needs a Delete member;
  /// every declared rank needs an answer function and vice versa) and
  /// instantiates the handle with this registry's shards and cache bounds.
  template <RegistrableSynopsis S>
  Status Register(SynopsisDescriptor<S> descriptor) {
    if (descriptor.name.empty()) {
      return Status::InvalidArgument("synopsis name must be non-empty");
    }
    if (handle(descriptor.name) != nullptr) {
      return Status::AlreadyExists("synopsis already registered: " +
                                   descriptor.name);
    }
    if (descriptor.factory == nullptr) {
      return Status::InvalidArgument(descriptor.name +
                                     ": descriptor needs a factory");
    }
    if (descriptor.on_delete == DeleteBehavior::kApplies &&
        !DeletableSynopsis<S>) {
      return Status::InvalidArgument(
          descriptor.name +
          ": DeleteBehavior::kApplies requires a Delete(Value) member");
    }
    std::array<int, kNumQueryKinds> accuracy_class;
    std::array<bool, kNumQueryKinds> has_error;
    for (int kind = 0; kind < kNumQueryKinds; ++kind) {
      accuracy_class[kind] = descriptor.model[kind].accuracy_class;
      has_error[kind] = descriptor.model[kind].error != nullptr;
    }
    AQUA_RETURN_NOT_OK(ValidateModel(
        descriptor.name, accuracy_class, has_error,
        {descriptor.answers.hot_list != nullptr,
         descriptor.answers.frequency != nullptr,
         descriptor.answers.count_where != nullptr,
         descriptor.answers.distinct != nullptr,
         descriptor.answers.quantile != nullptr}));
    HandleOptions handle_options;
    handle_options.shards = options_.shards;
    handle_options.seed = SplitMix64Next(seed_chain_);
    handle_options.cache_max_stale_ops = options_.cache_max_stale_ops;
    handle_options.cache_max_stale_interval =
        options_.cache_max_stale_interval;
    handle_options.external_refresh = options_.external_refresh;
    auto typed = std::make_unique<TypedSynopsisHandle<S>>(
        std::move(descriptor), handle_options);
    IndexHandle(typed.get());
    handles_.push_back(std::move(typed));
    return Status::OK();
  }

  /// Observes one load-stream operation (insert or delete).
  Status Observe(const StreamOp& op);

  /// Observes a whole slice of the load stream.  Maximal runs of
  /// consecutive inserts are routed through the handles' batched fast
  /// paths; deletes are applied individually with the same semantics as
  /// Observe().  Statistically identical to observing op-by-op.
  Status ObserveBatch(std::span<const StreamOp> ops);

  /// Ingests a batch of inserted values into every valid handle.
  void InsertBatch(std::span<const Value> values);

  /// Routes one delete to every handle per its DeleteBehavior; returns the
  /// first error (invalidations and exact applications still happen for
  /// the other handles).
  Status Delete(Value value);

  /// True when some valid handle applies deletes exactly (drivers that
  /// refuse deletes otherwise, like ServingEngine, check this).
  bool HasDeletable() const;

  /// Stages a shipped delta for merging into the named handle (see
  /// SynopsisHandle::PrepareDeltaMerge — decode/validate now, apply via
  /// the returned closure).  NotFound for unknown names.
  Result<std::function<Status()>> PrepareDeltaMerge(
      std::string_view name, const std::vector<std::uint8_t>& bytes);

  /// Folds `n` externally-observed inserts into the insert counter — ops
  /// summarized by merged deltas or restored checkpoints that never passed
  /// through InsertBatch here.  Without this, count_where scaling on an
  /// aggregator (which observes no raw stream) would treat the relation as
  /// empty.
  void NoteExternalInserts(std::int64_t n) {
    inserts_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Closes one cluster merge round: bumps the merge-round epoch (a term
  /// of ServingEpoch, so HTTP response caches keyed on it invalidate
  /// immediately) and reports enough ingest progress to every handle that
  /// the next settle refreshes its snapshot cache — one logical epoch per
  /// merge round.
  void CompleteMergeRound();

  std::uint64_t merge_rounds() const {
    return merge_rounds_.load(std::memory_order_relaxed);
  }

  /// Monotonic serving epoch: the sum of every handle's snapshot-cache
  /// epoch plus the count of invalidated handles.  Any event that can
  /// change a served answer — an epoch swap publishing a fresh snapshot,
  /// or a delete invalidating a handle — strictly increases it, and
  /// per-handle epochs never decrease, so two equal reads bracketing a
  /// computation prove every snapshot it pinned belonged to one epoch.
  /// This is what the HTTP response cache keys on.
  std::uint64_t ServingEpoch() const;

  /// True when any valid handle's snapshot cache is past a staleness
  /// bound: the next query would refresh it, so the serving epoch is about
  /// to advance and cached responses must not be served ahead of it.
  bool AnyCacheStale() const;

  /// Refreshes every stale snapshot cache now (queries only refresh the
  /// synopsis they touch, so without this the epoch would stay unsettled
  /// until every synopsis happened to be queried).  Thread-safe; the cost
  /// is bounded by the staleness interval per handle.
  void SettleCaches() const;

  /// Total words across all valid handles.
  Words TotalFootprint() const;

  std::int64_t observed_inserts() const {
    return inserts_.load(std::memory_order_relaxed);
  }
  std::int64_t observed_deletes() const {
    return deletes_.load(std::memory_order_relaxed);
  }

  /// The handles answering `kind`, ascending accuracy class (ties in
  /// registration order) — the candidate list the planner walks.
  /// Pointers stay valid for the registry's lifetime (registration
  /// precedes serving).
  std::span<const SynopsisHandle* const> HandlesFor(QueryKind kind) const {
    const auto& list = by_kind_[static_cast<int>(kind)];
    return std::span<const SynopsisHandle* const>(list.data(), list.size());
  }

  /// Records / reads the error bound the planner last reported for a kind
  /// (-1 until a planned query of the kind ran).  Const: observability
  /// from the const answer path, relaxed atomics.
  void NoteAchievedError(QueryKind kind, double error) const {
    last_achieved_error_[static_cast<int>(kind)].store(
        error, std::memory_order_relaxed);
  }
  double LastAchievedError(QueryKind kind) const {
    return last_achieved_error_[static_cast<int>(kind)].load(
        std::memory_order_relaxed);
  }

  /// The handle registered under `name`; null when unknown.
  const SynopsisHandle* handle(std::string_view name) const;

  /// Mutable handle access for restore-before-serving flows (persistence).
  SynopsisHandle* mutable_handle(std::string_view name);

  std::size_t size() const { return handles_.size(); }

  /// Indexed handle access for persistence sweeps (checkpoint/export walk
  /// every handle; registration order is stable).
  SynopsisHandle* handle_at(std::size_t i) { return handles_[i].get(); }
  const SynopsisHandle* handle_at(std::size_t i) const {
    return handles_[i].get();
  }

  const Options& options() const { return options_; }

  RegistryStats GetStats() const;

  /// Out-param form of GetStats(): resizes `out->synopses` in place and
  /// assigns into the existing elements, so a stats endpoint reusing one
  /// RegistryStats as scratch reports without allocating (the per-entry
  /// name strings keep their capacity — every registered name is stable).
  void GetStatsInto(RegistryStats* out) const;

  /// Typed consistent copy of a handle's current state: an epoch refreshed
  /// for this call, so it holds every op observed so far (tests,
  /// persistence).  NotFound for an unknown name or the wrong type,
  /// FailedPrecondition once invalidated.
  template <RegistrableSynopsis S>
  Result<S> StateCopy(std::string_view name) const {
    const auto* typed = TypedHandle<S>(name);
    if (typed == nullptr) {
      return Status::NotFound("no synopsis of that name and type: " +
                              std::string(name));
    }
    return typed->StateCopy();
  }

 private:
  Status ValidateModel(const std::string& name,
                       const std::array<int, kNumQueryKinds>& accuracy_class,
                       const std::array<bool, kNumQueryKinds>& has_error,
                       const std::array<bool, kNumQueryKinds>& has_answerer);

  /// Inserts the handle into each per-kind list it answers, keeping the
  /// lists sorted by ascending accuracy class (ties: registration order).
  void IndexHandle(SynopsisHandle* handle);

  template <RegistrableSynopsis S>
  const TypedSynopsisHandle<S>* TypedHandle(std::string_view name) const {
    return dynamic_cast<const TypedSynopsisHandle<S>*>(handle(name));
  }

  Options options_;
  std::uint64_t seed_chain_ = 0;
  std::vector<std::unique_ptr<SynopsisHandle>> handles_;
  /// Per query kind, the handles that answer it, ascending rank.
  std::array<std::vector<SynopsisHandle*>, kNumQueryKinds> by_kind_;
  std::atomic<std::int64_t> inserts_{0};
  std::atomic<std::int64_t> deletes_{0};
  std::atomic<std::uint64_t> merge_rounds_{0};
  /// Per kind, the planner's last reported error bound (-1: none yet).
  mutable std::array<std::atomic<double>, kNumQueryKinds>
      last_achieved_error_ = {-1.0, -1.0, -1.0, -1.0, -1.0};
};

}  // namespace aqua

#endif  // AQUA_REGISTRY_REGISTRY_H_
