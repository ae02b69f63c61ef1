#ifndef AQUA_REGISTRY_TYPED_HANDLE_H_
#define AQUA_REGISTRY_TYPED_HANDLE_H_

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "concurrency/shared_synopsis.h"
#include "concurrency/sharded_synopsis.h"
#include "concurrency/snapshot_cache.h"
#include "random/xoshiro256.h"
#include "registry/synopsis_handle.h"
#include "view/frozen_view.h"

namespace aqua {

/// Minimum contract for a registrable synopsis type: per-element insert, a
/// word footprint, and copyability (snapshots are copies).
template <typename S>
concept RegistrableSynopsis =
    std::copy_constructible<S> && requires(S s, const S cs, Value v) {
      s.Insert(v);
      { cs.Footprint() } -> std::convertible_to<Words>;
    };

/// Synopses with an exact delete operation (counting sample Theorem 5,
/// full histogram).  Required when a descriptor declares
/// DeleteBehavior::kApplies.
template <typename S>
concept DeletableSynopsis = requires(S s, Value v) {
  { s.Delete(v) } -> std::same_as<Status>;
};

/// Synopses whose independently-built copies merge back into one valid
/// synopsis and whose contents can be drained.  This is what gates sharded
/// ingest: a concurrent handle for a shardable type that does not apply
/// deletes spreads inserts over a ShardedSynopsis and drains the shards
/// into each new epoch; everything else stays single-instance behind a
/// SharedSynopsis.
template <typename S>
concept ShardableSynopsis = Mergeable<S> && Drainable<S>;

/// How answers are computed from a pinned snapshot of `S`.  Null entries
/// mean the synopsis does not answer that kind; each non-null entry must
/// have a matching model entry in the descriptor (Register validates).
template <typename S>
struct AnswerFunctions {
  std::function<HotList(const S&, const HotListQuery&, const QueryContext&)>
      hot_list;
  std::function<Estimate(const S&, Value, const QueryContext&)> frequency;
  std::function<Estimate(const S&, const ValuePredicate&, double,
                         const QueryContext&)>
      count_where;
  std::function<Estimate(const S&, const QueryContext&)> distinct;
  std::function<Estimate(const S&, double q, double confidence,
                         const QueryContext&)>
      quantile;
};

/// One query kind's cost/error model entry, declared by a descriptor: the
/// §6 accuracy class (the static ordering unbounded queries follow) plus an
/// error estimator evaluated on the live synopsis state.  The estimator
/// returns the kind's error metric (DESIGN.md §13: a relative bound such as
/// z(c)/(2·sqrt(m)) for uniform samples) predicted for answering from
/// `state` at `confidence`; +infinity means "cannot bound the error" (e.g.
/// an empty sample).  Register() requires an estimator for every declared
/// kind — the planner refuses to score a handle it cannot predict.
template <typename S>
struct KindCostModel {
  int accuracy_class = kCannotAnswer;
  std::function<double(const S& state, const QueryContext&,
                       double confidence)>
      error;
};

/// The full per-kind model of one synopsis (indexed by QueryKind).
template <typename S>
using CostErrorModel = std::array<KindCostModel<S>, kNumQueryKinds>;

/// Everything the registry needs to own and serve one synopsis type:
/// construction, delete semantics, the per-kind cost/error model, answer
/// computation, and (optionally) a persist codec.  A descriptor is
/// registered once and serves both engines — there is no per-engine fork.
template <typename S>
struct SynopsisDescriptor {
  /// Stable id; doubles as the response `method` tag.
  std::string name;
  DeleteBehavior on_delete = DeleteBehavior::kIgnores;
  /// Per-QueryKind cost/error model; kCannotAnswer where not served.
  CostErrorModel<S> model = {};
  /// Builds one instance (one shard, in sharded mode) from a seed.
  std::function<S(std::uint64_t seed)> factory;
  AnswerFunctions<S> answers;
  /// Optional freeze-time view spec (the Build*ViewSpec functions in
  /// view_builders.h).  When set, concurrent handles freeze a FrozenView
  /// from every merged snapshot and publish {snapshot, view} under one
  /// epoch swap; query kinds the view serves answer from it instead of the
  /// answer functions.  Successive epochs patch the previous view's
  /// orderings instead of re-sorting — O(m + d log d) per refresh,
  /// bit-identical to a full build.
  std::function<FrozenView::Spec(const S&)> spec_builder;
  /// Optional persist codec (persist/snapshot.h-style byte format).
  std::function<std::vector<std::uint8_t>(const S&)> encode;
  std::function<Result<S>(const std::vector<std::uint8_t>&, std::uint64_t)>
      decode;

  /// Declares one answered kind: its accuracy class and error estimator.
  void Declare(QueryKind kind, int accuracy_class,
               std::function<double(const S&, const QueryContext&, double)>
                   error_estimator) {
    KindCostModel<S>& entry = model[static_cast<int>(kind)];
    entry.accuracy_class = accuracy_class;
    entry.error = std::move(error_estimator);
  }
};

/// Per-handle construction parameters, chosen by the registry.
struct HandleOptions {
  /// Ingest shards for shardable synopses.
  std::size_t shards = 1;
  std::uint64_t seed = 0;
  /// Snapshot-cache staleness bounds (see SnapshotCache).
  std::int64_t cache_max_stale_ops = 8192;
  std::chrono::nanoseconds cache_max_stale_interval =
      std::chrono::milliseconds(100);
  /// Hand refresh ownership to an external epoch pump: query-thread Get()
  /// never re-merges a warmed cache (see SnapshotCache::Options).
  bool external_refresh = false;
};

/// One epoch's published state: the snapshot plus the read-optimized
/// view frozen from it (when the descriptor declares a view builder).  The
/// SnapshotCache publishes the whole struct under one `shared_ptr` swap, so
/// a reader that pins an epoch gets a {snapshot, view} pair that is
/// mutually consistent by construction — no extra synchronization.
template <typename S>
struct EpochState {
  S snapshot;
  std::optional<FrozenView> view;
  /// Wall time the view build added to this epoch's refresh (0: no view).
  std::int64_t view_build_ns = 0;
  /// True when the view was patched from the previous epoch's orderings
  /// instead of fully rebuilt.
  bool view_patched = false;
};

/// The AnswerSource a TypedSynopsisHandle pins: an epoch's snapshot of
/// `S`, the epoch's frozen view when one exists, and the descriptor's
/// answer functions as the direct path.  Each answer method prefers the
/// view (O(k)/O(log m)) and falls back to the descriptor's per-query
/// computation — the fallback covers the planner's direct path, synopses
/// without a view builder, and query kinds a view doesn't serve.
template <RegistrableSynopsis S>
class TypedAnswerSource final : public AnswerSource {
 public:
  /// `view` must stay valid while `snapshot` is held (the handle passes a
  /// pointer into the EpochState that `snapshot` aliases, so the pinned
  /// epoch keeps both alive).
  TypedAnswerSource(std::shared_ptr<const SynopsisDescriptor<S>> descriptor,
                    std::shared_ptr<const S> snapshot,
                    const FrozenView* view = nullptr)
      : descriptor_(std::move(descriptor)),
        snapshot_(std::move(snapshot)),
        view_(view) {}

  std::string_view Method() const override { return descriptor_->name; }

  /// True when this source would answer the kind from the frozen view
  /// (planner path accounting, bench/stats introspection).
  bool AnswersFromView(QueryKind kind) const override {
    return view_ != nullptr && view_->Answers(kind);
  }

  void HotListAnswerInto(const HotListQuery& query, const QueryContext& ctx,
                         HotList* out) const override {
    if (AnswersFromView(QueryKind::kHotList)) {
      view_->HotListAnswerInto(query, out);
      return;
    }
    *out = descriptor_->answers.hot_list(*snapshot_, query, ctx);
  }
  Estimate FrequencyAnswer(Value value,
                           const QueryContext& ctx) const override {
    if (AnswersFromView(QueryKind::kFrequency)) {
      return view_->FrequencyAnswer(value);
    }
    return descriptor_->answers.frequency(*snapshot_, value, ctx);
  }
  Estimate CountWhereRangeAnswer(const ValueRange& range, double confidence,
                                 const QueryContext& ctx) const override {
    if (AnswersFromView(QueryKind::kCountWhere)) {
      return view_->CountWhereRangeAnswer(range, confidence, ctx);
    }
    return descriptor_->answers.count_where(*snapshot_, range.AsPredicate(),
                                            confidence, ctx);
  }
  Estimate DistinctAnswer(const QueryContext& ctx) const override {
    if (AnswersFromView(QueryKind::kDistinct)) {
      return view_->DistinctAnswer();
    }
    return descriptor_->answers.distinct(*snapshot_, ctx);
  }
  Estimate QuantileAnswer(double q, double confidence,
                          const QueryContext& ctx) const override {
    if (AnswersFromView(QueryKind::kQuantile)) {
      return view_->QuantileAnswer(q, confidence);
    }
    return descriptor_->answers.quantile(*snapshot_, q, confidence, ctx);
  }

 private:
  std::shared_ptr<const SynopsisDescriptor<S>> descriptor_;
  std::shared_ptr<const S> snapshot_;
  const FrozenView* view_;
};

/// The one concrete SynopsisHandle implementation: binds a synopsis type to
/// its descriptor and instantiates the ingest path that the type's
/// capabilities permit, always behind a SnapshotCache of published epochs —
///   shardable, deletes not applied: ShardedSynopsis ingest; each refresh
///     copies the previous epoch's snapshot, drains the shards into the
///     copy and publishes it, so the epoch is one long-lived sample kept
///     up like the paper's single instance (§3.1);
///   otherwise: SharedSynopsis ingest, each refresh copies it under its
///     lock.
template <RegistrableSynopsis S>
class TypedSynopsisHandle final : public SynopsisHandle {
 public:
  TypedSynopsisHandle(SynopsisDescriptor<S> descriptor,
                      const HandleOptions& options)
      : descriptor_(std::make_shared<const SynopsisDescriptor<S>>(
            std::move(descriptor))),
        seed_(options.seed) {
    caps_.on_delete = descriptor_->on_delete;
    for (int kind = 0; kind < kNumQueryKinds; ++kind) {
      caps_.model[kind].accuracy_class =
          descriptor_->model[kind].accuracy_class;
    }
    caps_.mergeable = Mergeable<S>;
    caps_.batch_insertable = BatchInsertable<S>;
    caps_.persistable =
        descriptor_->encode != nullptr && descriptor_->decode != nullptr;
    const typename SnapshotCache<EpochState<S>>::Options cache_options{
        .max_stale_ops = options.cache_max_stale_ops,
        .max_stale_interval = options.cache_max_stale_interval,
        .external_refresh = options.external_refresh};
    if constexpr (ShardableSynopsis<S>) {
      // A drained shard cannot take a delete for a value the epoch already
      // absorbed, so a synopsis that applies deletes stays single-instance.
      if (caps_.on_delete != DeleteBehavior::kApplies) {
        caps_.sharded = true;
        sharded_ = std::make_unique<ShardedSynopsis<S>>(
            options.shards, [this](std::size_t i) {
              return descriptor_->factory(ShardSeed(i));
            });
        cache_ = std::make_unique<SnapshotCache<EpochState<S>>>(
            [this] { return DrainEpoch(); }, cache_options);
        return;
      }
    }
    shared_ = std::make_unique<SharedSynopsis<S>>(
        descriptor_->factory(ShardSeed(0)));
    cache_ = std::make_unique<SnapshotCache<EpochState<S>>>(
        [this]() -> Result<EpochState<S>> {
          // The "snapshot" is a copy taken under the shared lock — still
          // O(footprint), still off the per-query path thanks to the epoch
          // cache.  The view is built *outside* the lock, from the copy.
          return FreezeEpoch(shared_->WithRead([](const S& s) { return s; }));
        },
        cache_options);
  }

  TypedSynopsisHandle(const TypedSynopsisHandle&) = delete;
  TypedSynopsisHandle& operator=(const TypedSynopsisHandle&) = delete;

  std::string_view Name() const override { return descriptor_->name; }

  const SynopsisCapabilities& Capabilities() const override { return caps_; }

  bool valid() const override {
    return valid_.load(std::memory_order_acquire);
  }

  void InsertBatch(std::span<const Value> values) override {
    if (values.empty() || !valid()) return;
    if (sharded_ != nullptr) {
      sharded_->InsertBatch(values);
    } else {
      shared_->InsertBatch(values);
    }
  }

  Status Delete(Value value) override {
    switch (caps_.on_delete) {
      case DeleteBehavior::kIgnores:
        return Status::OK();
      case DeleteBehavior::kInvalidates:
        // §4.1: cannot be maintained under deletions.  The storage stays
        // intact (an in-flight refresh may still read it); the handle just
        // stops serving.
        valid_.store(false, std::memory_order_release);
        return Status::OK();
      case DeleteBehavior::kApplies:
        // Delete-applying synopses are never sharded (see the constructor).
        if constexpr (DeletableSynopsis<S>) {
          return shared_->Delete(value);
        }
        return Status::Internal(std::string(Name()) +
                                ": kApplies without a Delete member");
    }
    return Status::Internal("unreachable");
  }

  void OnIngest(std::int64_t n) override { cache_->OnOps(n); }

  Words Footprint() const override {
    if (!valid()) return 0;
    if (sharded_ != nullptr) {
      // The published epoch holds everything drained so far; the shards
      // hold what arrived since.
      const std::shared_ptr<const EpochState<S>> state = cache_->Peek();
      return sharded_->Footprint() +
             (state != nullptr ? state->snapshot.Footprint() : 0);
    }
    return shared_->WithRead([](const S& s) { return s.Footprint(); });
  }

  using SynopsisHandle::PinInto;
  const AnswerSource* PinInto(PinnedAnswerSource& pinned,
                              bool allow_view) const override {
    if (!valid()) return nullptr;
    Result<std::shared_ptr<const EpochState<S>>> cached = cache_->Get();
    if (!cached.ok()) return nullptr;
    std::shared_ptr<const EpochState<S>> state =
        std::move(cached).ValueOrDie();
    // A planner that chose the direct path drops the view pointer, so
    // every kind answers via the descriptor's computation (the view stays
    // alive inside the pinned epoch either way).
    const FrozenView* view = allow_view && state->view.has_value()
                                 ? std::addressof(*state->view)
                                 : nullptr;
    // Aliasing ptr: owns the whole EpochState, points at the snapshot —
    // so the pinned source keeps the view alive too.  Placement-constructed
    // into the caller's buffer: no control block or source object is
    // heap-allocated.
    const S* snapshot = std::addressof(state->snapshot);
    return pinned.Emplace<TypedAnswerSource<S>>(
        descriptor_, std::shared_ptr<const S>(std::move(state), snapshot),
        view);
  }

  double PredictedError(QueryKind kind, const QueryContext& ctx,
                        double confidence) const override {
    const KindCostModel<S>& entry = descriptor_->model[static_cast<int>(kind)];
    if (entry.accuracy_class == kCannotAnswer || entry.error == nullptr ||
        !valid()) {
      return std::numeric_limits<double>::infinity();
    }
    // Peek, never Get: prediction must not force a refresh (callers settle
    // the caches first — the routes' scoped epoch, the pump, or an explicit
    // SettleCaches(); an epoch that was never published predicts +inf until
    // the first query or settle publishes it).
    const std::shared_ptr<const EpochState<S>> state = cache_->Peek();
    if (state != nullptr) return entry.error(state->snapshot, ctx, confidence);
    return std::numeric_limits<double>::infinity();
  }

  LatencyProfile LatencyFor(QueryKind kind) const override {
    const int i = static_cast<int>(kind);
    LatencyProfile profile;
    profile.view_ns = view_ewma_ns_[i].load(std::memory_order_relaxed);
    profile.direct_ns = direct_ewma_ns_[i].load(std::memory_order_relaxed);
    profile.view_observations =
        view_observations_[i].load(std::memory_order_relaxed);
    profile.direct_observations =
        direct_observations_[i].load(std::memory_order_relaxed);
    return profile;
  }

  void RecordLatency(QueryKind kind, bool via_view,
                     std::int64_t ns) const override {
    const int i = static_cast<int>(kind);
    std::atomic<double>& ewma = via_view ? view_ewma_ns_[i]
                                         : direct_ewma_ns_[i];
    std::atomic<std::int64_t>& observations =
        via_view ? view_observations_[i] : direct_observations_[i];
    const double x = static_cast<double>(ns);
    // Racing recorders may lose an update; the EWMA is a profile, not an
    // accounting invariant, so relaxed load/store beats a CAS loop here.
    if (observations.fetch_add(1, std::memory_order_relaxed) == 0) {
      ewma.store(x, std::memory_order_relaxed);
      return;
    }
    const double previous = ewma.load(std::memory_order_relaxed);
    ewma.store(previous + (x - previous) * kLatencyEwmaAlpha,
               std::memory_order_relaxed);
  }

  bool ViewAnswers(QueryKind kind) const override {
    const std::shared_ptr<const EpochState<S>> state = cache_->Peek();
    return state != nullptr && state->view.has_value() &&
           state->view->Answers(kind);
  }

  /// A copy of the snapshot of an epoch refreshed for this call, so
  /// checkpoints, cluster pushes and tests never miss points still sitting
  /// in a shard or behind the cache's staleness bound.
  Result<S> StateCopy() const {
    if (!valid()) {
      return Status::FailedPrecondition(std::string(Name()) +
                                        " invalidated by deletions");
    }
    AQUA_RETURN_NOT_OK(cache_->Refresh());
    return S(cache_->Peek()->snapshot);
  }

  Result<std::vector<std::uint8_t>> EncodeState() const override {
    if (descriptor_->encode == nullptr) {
      return Status::Unimplemented(std::string(Name()) +
                                   " has no persist codec");
    }
    AQUA_ASSIGN_OR_RETURN(const S copy, StateCopy());
    return descriptor_->encode(copy);
  }

  Status RestoreState(const std::vector<std::uint8_t>& bytes) override {
    if (descriptor_->decode == nullptr) {
      return Status::Unimplemented(std::string(Name()) +
                                   " has no persist codec");
    }
    std::uint64_t chain = seed_ ^ kRestoreSeedTag;
    AQUA_ASSIGN_OR_RETURN(S restored,
                          descriptor_->decode(bytes, SplitMix64Next(chain)));
    // Recovery runs before ingest, so the other shards and any published
    // epoch are empty, and assigning the restored state into shard 0
    // reconstitutes the whole synopsis: the next drain merges it into an
    // empty epoch, which keeps every point.  The cache's next refresh —
    // forced by the ingest-ops report below — publishes it.
    if constexpr (std::is_move_assignable_v<S>) {
      if constexpr (ShardableSynopsis<S>) {
        if (sharded_ != nullptr) {
          sharded_->WithShardMutable(
              0, [&restored](S& s) { s = std::move(restored); });
        }
      }
      if (shared_ != nullptr) {
        shared_->WithWrite([&restored](S& s) -> Status {
          s = std::move(restored);
          return Status::OK();
        });
      }
      valid_.store(true, std::memory_order_release);
      OnIngest(std::numeric_limits<std::int64_t>::max() / 2);
      return Status::OK();
    }
    return Status::Unimplemented(std::string(Name()) +
                                 ": state is not assignable");
  }

  Result<std::function<Status()>> PrepareDeltaMerge(
      const std::vector<std::uint8_t>& bytes) override {
    if constexpr (!Mergeable<S>) {
      return Status::Unimplemented(std::string(Name()) + " is not mergeable");
    } else {
      if (descriptor_->decode == nullptr) {
        return Status::Unimplemented(std::string(Name()) +
                                     " has no persist codec");
      }
      // Per-merge seed: decoded deltas draw from streams that never repeat
      // across merge rounds (repeating would correlate successive rounds'
      // subsampling draws), derived deterministically from the handle seed
      // and a merge counter so recovery tests stay reproducible.
      const std::uint64_t n = merge_seq_.fetch_add(1, std::memory_order_relaxed);
      std::uint64_t chain = seed_ ^ kMergeSeedTag ^ ((n + 1) * 0x9e3779b97f4a7c15ULL);
      AQUA_ASSIGN_OR_RETURN(S decoded,
                            descriptor_->decode(bytes, SplitMix64Next(chain)));
      auto delta = std::make_shared<S>(std::move(decoded));
      return std::function<Status()>([this, delta]() -> Status {
        if (!valid()) {
          return Status::FailedPrecondition(std::string(Name()) +
                                            " invalidated by deletions");
        }
        if constexpr (ShardableSynopsis<S>) {
          if (sharded_ != nullptr) {
            return sharded_->WithShardMutable(
                0, [&delta](S& s) { return s.MergeFrom(*delta); });
          }
        }
        return shared_->WithWrite(
            [&delta](S& s) { return s.MergeFrom(*delta); });
      });
    }
  }

  std::uint64_t CacheEpoch() const override { return cache_->epoch(); }

  SnapshotCacheStats CacheStats() const override { return cache_->Stats(); }

  bool CacheIsStale() const override { return valid() && cache_->IsStale(); }

  void SettleCache() const override {
    if (valid() && cache_->IsStale()) {
      // Explicit Refresh (not Get): settles are driven by the routes'
      // scoped epochs, the pump or an explicit SettleCaches(), never a
      // query's pin, so they count as external refreshes — inline_refreshes
      // stays the precise count of Get()-triggered re-merges.  Failures
      // leave the cache stale.
      (void)cache_->Refresh();
    }
  }

  bool HasView() const override {
    const std::shared_ptr<const EpochState<S>> state = cache_->Peek();
    return state != nullptr && state->view.has_value();
  }

  std::int64_t ViewBuildNs() const override {
    const std::shared_ptr<const EpochState<S>> state = cache_->Peek();
    return state != nullptr ? state->view_build_ns : 0;
  }

  RefreshProfile GetRefreshProfile() const override {
    RefreshProfile profile;
    profile.full_rebuilds = full_rebuilds_.load(std::memory_order_relaxed);
    profile.incremental_rebuilds =
        incremental_rebuilds_.load(std::memory_order_relaxed);
    profile.view_full_builds =
        view_full_builds_.load(std::memory_order_relaxed);
    profile.view_patched_builds =
        view_patched_builds_.load(std::memory_order_relaxed);
    profile.last_view_delta_fraction =
        last_view_delta_fraction_.load(std::memory_order_relaxed);
    return profile;
  }

 private:
  static constexpr std::uint64_t kRestoreSeedTag = 0x7e57a7edc0dec0deULL;
  static constexpr std::uint64_t kMergeSeedTag = 0xc1a57e55de17a5edULL;
  /// EWMA smoothing for the latency profiles: 1/8 weighs a new observation
  /// enough to track epoch-scale shifts without letting one outlier
  /// repaint the profile.
  static constexpr double kLatencyEwmaAlpha = 0.125;

  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// The sharded refresher.  The previous epoch's snapshot is the
  /// long-lived base: copy it, drain every shard's arrivals since the last
  /// epoch into the copy, and freeze that.  The first epoch starts from an
  /// empty instance on a stream of its own (ShardSeed(shards) follows every
  /// shard's).  Runs only inside the cache's refresher, whose refresh mutex
  /// serializes the drains.  A failed merge fails the refresh and loses
  /// the points drained in this attempt; the built-in merges cannot fail
  /// here (they refuse only self-merges and undersized reservoirs).
  Result<EpochState<S>> DrainEpoch() const
    requires ShardableSynopsis<S>
  {
    const std::shared_ptr<const EpochState<S>> previous = cache_->Peek();
    S next = previous != nullptr
                 ? previous->snapshot
                 : descriptor_->factory(ShardSeed(sharded_->num_shards()));
    AQUA_RETURN_NOT_OK(sharded_->DrainInto(next));
    (previous != nullptr ? incremental_rebuilds_ : full_rebuilds_)
        .fetch_add(1, std::memory_order_relaxed);
    return FreezeEpoch(std::move(next));
  }

  /// Turns a freshly built snapshot into the epoch's published state,
  /// freezing the read-optimized view (and timing the build) when the
  /// descriptor declares a spec_builder.  The view is patched from the
  /// previous epoch's orderings (FrozenView's incremental constructor)
  /// instead of fully re-sorted.  Runs only inside the cache's refresher —
  /// the refresh mutex serializes view_patch_scratch_.
  EpochState<S> FreezeEpoch(S&& snapshot) const {
    EpochState<S> state{std::move(snapshot), std::nullopt, 0};
    if (descriptor_->spec_builder != nullptr) {
      const std::int64_t start = NowNs();
      FrozenView::Spec spec = descriptor_->spec_builder(state.snapshot);
      const std::shared_ptr<const EpochState<S>> previous = cache_->Peek();
      if (previous != nullptr && previous->view.has_value()) {
        ViewPatchStats patch_stats;
        state.view.emplace(std::move(spec), *previous->view,
                           view_patch_scratch_, &patch_stats);
        state.view_patched = !patch_stats.full_sort;
        last_view_delta_fraction_.store(patch_stats.delta_fraction,
                                        std::memory_order_relaxed);
      } else {
        state.view.emplace(std::move(spec));
        last_view_delta_fraction_.store(1.0, std::memory_order_relaxed);
      }
      if (state.view_patched) {
        view_patched_builds_.fetch_add(1, std::memory_order_relaxed);
      } else {
        view_full_builds_.fetch_add(1, std::memory_order_relaxed);
      }
      state.view_build_ns = NowNs() - start;
    }
    return state;
  }

  /// Independent per-shard streams (correlated shards would break merge
  /// uniformity); SplitMix64 over seed + shard index.
  std::uint64_t ShardSeed(std::size_t i) const {
    std::uint64_t s = seed_ + 0x9e3779b97f4a7c15ULL * (i + 1);
    return SplitMix64Next(s);
  }

  std::shared_ptr<const SynopsisDescriptor<S>> descriptor_;
  SynopsisCapabilities caps_;
  std::uint64_t seed_;

  /// Exactly one of sharded_ / shared_ holds the ingest side; cache_ is
  /// always set.
  std::unique_ptr<ShardedSynopsis<S>> sharded_;
  std::unique_ptr<SharedSynopsis<S>> shared_;
  std::unique_ptr<SnapshotCache<EpochState<S>>> cache_;

  std::atomic<bool> valid_{true};
  /// Counts PrepareDeltaMerge calls — each decode gets its own seed.
  std::atomic<std::uint64_t> merge_seq_{0};

  /// The previous view's mirror for FrozenView's delta-patch build,
  /// touched only inside the cache's refresher (serialized by its refresh
  /// mutex).
  mutable FrozenView::PatchScratch view_patch_scratch_;

  /// Incremental-refresh profile (see RefreshProfile).  Mutable + relaxed
  /// atomics: written from the (const) refresher, read from /stats.
  mutable std::atomic<std::int64_t> full_rebuilds_{0};
  mutable std::atomic<std::int64_t> incremental_rebuilds_{0};
  mutable std::atomic<std::int64_t> view_full_builds_{0};
  mutable std::atomic<std::int64_t> view_patched_builds_{0};
  mutable std::atomic<double> last_view_delta_fraction_{1.0};

  /// Measured latency profiles (see LatencyProfile): per kind, per serving
  /// path.  Mutable + relaxed atomics — recorded from const answer paths
  /// on any thread.
  mutable std::array<std::atomic<double>, kNumQueryKinds> view_ewma_ns_{};
  mutable std::array<std::atomic<double>, kNumQueryKinds> direct_ewma_ns_{};
  mutable std::array<std::atomic<std::int64_t>, kNumQueryKinds>
      view_observations_{};
  mutable std::array<std::atomic<std::int64_t>, kNumQueryKinds>
      direct_observations_{};
};

}  // namespace aqua

#endif  // AQUA_REGISTRY_TYPED_HANDLE_H_
