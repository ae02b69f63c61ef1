#ifndef AQUA_VIEW_FROZEN_VIEW_H_
#define AQUA_VIEW_FROZEN_VIEW_H_

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "container/flat_hash_map.h"
#include "core/value_count.h"
#include "estimate/aggregates.h"
#include "hotlist/hot_list.h"
#include "sample/capabilities.h"

namespace aqua {

/// How one incremental view build went: how much of the entry set moved
/// and whether the build fell back to full sorts.  Non-template and
/// aggregatable, like the other *Stats structs.
struct ViewPatchStats {
  std::size_t total_entries = 0;
  /// Entries added or whose count changed since the previous epoch (these
  /// are the sorted-and-merged delta).
  std::size_t delta_entries = 0;
  /// Previous-epoch entries absent from the new snapshot.
  std::size_t removed_entries = 0;
  /// True when the delta was too large (or the previous view was empty)
  /// and the build sorted everything from scratch.
  bool full_sort = false;
  /// (delta + removed) / max(1, total) — the churn this patch absorbed.
  double delta_fraction = 1.0;
};

/// A read-optimized answer structure built once per snapshot epoch.
///
/// The paper's §5 observation — entries "sorted by counts … allows for
/// reporting in O(k) time" — holds only if somebody pays the sort.  Since
/// PR 2 made snapshots immutable per epoch, the direct answer paths were
/// paying it per *query*: every hot list re-sorted all entries, every
/// quantile re-sorted the expanded point sample, every predicate count
/// re-scanned the entry map.  A FrozenView moves that work to the epoch
/// refresh: it is built exactly once from a freshly merged snapshot (see
/// TypedSynopsisHandle::FreezeEpoch) and published under the same
/// `shared_ptr` swap, so readers get a consistent {snapshot, view} pair
/// with no extra synchronization, and each query costs
///   hot list   O(k)        (prefix of the count-descending order),
///   frequency  O(log m)    (binary search of the value order),
///   count_where over a [low, high] range
///              O(log m)    (two binary searches + a prefix-sum diff),
///   quantile   O(log m)    (binary search of the count prefix sums),
///   distinct   O(1)        (estimate precomputed at freeze).
///
/// Answers are bit-identical to the direct paths: the view stores the
/// *parameters* of each estimator (scale/offset/floor for hot lists, the
/// frozen frequency scalars) and calls the same shared arithmetic helpers
/// (`internal_hotlist::Report` semantics, `FrequencyEstimator::From*Counts`,
/// `SampleEstimator::CountWhereFromHits`, `internal_quantile::WithBounds`)
/// the per-query paths call — proved by
/// tests/view/view_equivalence_property_test.cc.
class FrozenView {
 public:
  /// Hot-list reporting parameters frozen from the source synopsis
  /// (estimated count = synopsis count * scale + offset; see
  /// internal_hotlist::Report).
  struct HotListParams {
    double scale = 0.0;
    double offset = 0.0;
    /// When true the report floor is the query's β (concise/traditional);
    /// otherwise `fixed_floor` (the counting sample's max(1, τ - ĉ)).
    bool floor_is_beta = true;
    double fixed_floor = 0.0;
  };

  /// Frequency estimate from a synopsis count, with all other estimator
  /// inputs (sample-size, observed inserts, τ, …) frozen into the closure.
  using FrequencyFn = std::function<Estimate(Count synopsis_count,
                                             double confidence)>;

  /// What a view builder (view_builders.h) hands over; FrozenView sorts
  /// and prefix-sums once at construction.
  struct Spec {
    /// The snapshot's <value, count> entries, any order.
    std::vector<ValueCount> entries;
    /// Σ counts — the uniform sample-size m for count_where/quantile;
    /// captured from the synopsis so the view and the direct path scale by
    /// the same m.
    std::int64_t sample_size = 0;
    std::int64_t observed_inserts = 0;
    std::optional<HotListParams> hot_list;
    FrequencyFn frequency;  // null: frequency not served from this view
    bool count_where = false;
    bool quantile = false;
    /// Precomputed at freeze (distinct sketch); nullopt: not served.
    std::optional<Estimate> distinct;
  };

  /// Refresher-retained scratch for the incremental build: the previous
  /// epoch's entries in snapshot order (for the positional diff), a
  /// mirror for the divergent suffix, and the delta vectors — all
  /// retaining capacity across epochs.  One scratch belongs to one build
  /// sequence (the registry handle's refresh path); concurrent use is not
  /// supported — the handle's refresh mutex already serializes it.
  struct PatchScratch {
    struct Slot {
      Count count = 0;
      /// 0 = not yet seen in the new entry set, 1 = visited; unvisited
      /// slots after the classify are the removals.
      std::uint64_t gen = 0;
    };
    /// The last build's spec.entries, unsorted — snapshot iteration order
    /// is stable across epochs, so the next diff is mostly positional.
    std::vector<ValueCount> prev_entries;
    /// Divergent-suffix mirror (value → {count, visited}); rebuilt per
    /// patch, sized by the divergence, not by m.
    FlatHashMap<Value, Slot> mirror;
    std::vector<ValueCount> delta;
    /// Previous incarnations of changed/removed entries — the merges skip
    /// these by sorted two-pointer walk; O(churn) long.
    std::vector<ValueCount> stale_old;
    std::uint64_t last_build_id = 0;
    std::uint64_t next_build_id = 1;
  };

  explicit FrozenView(Spec spec);

  /// Incremental build: diffs `spec.entries` against `previous` (a
  /// positional scan of the stable snapshot order, plus a hash pass over
  /// the divergent suffix), sorts only the delta, and linear-merges it
  /// into the previous epoch's orderings — O(m + d log d) instead of
  /// O(m log m), with the O(m) part a sequential compare, not hashing.  Values are unique keys and both comparators are total
  /// orders, so the merged orderings are bit-identical to the full
  /// rebuild's by construction; prefix sums and moments are recomputed in
  /// value order exactly as the full constructor does.  Falls back to
  /// full sorts (still bit-identical, trivially) when the delta exceeds
  /// half the entry set, and rebuilds the mirror when `previous` is not
  /// the view this scratch last produced.
  FrozenView(Spec spec, const FrozenView& previous, PatchScratch& scratch,
             ViewPatchStats* stats = nullptr);

  bool Answers(QueryKind kind) const {
    return answers_[static_cast<int>(kind)];
  }

  /// O(k): the count-descending prefix above max(floor, c_k).
  HotList HotListAnswer(const HotListQuery& query) const;

  /// Out-param form: fills `*out` (cleared first), so a caller reusing a
  /// warmed vector gets the O(k) report with zero allocations.
  void HotListAnswerInto(const HotListQuery& query, HotList* out) const;

  /// O(log m): binary search of the value order, then the frozen
  /// estimator.
  Estimate FrequencyAnswer(Value value, double confidence = 0.95) const;

  /// O(log m): prefix-sum difference over the inclusive [low, high] range.
  Estimate CountWhereRangeAnswer(const ValueRange& range, double confidence,
                                 const QueryContext& ctx) const;

  /// O(log m): rank lookup via the count prefix sums.
  Estimate QuantileAnswer(double q, double confidence = 0.95) const;

  /// O(1): the estimate precomputed at freeze time.
  Estimate DistinctAnswer() const;

  /// Frozen scalars (stats, tests).
  std::int64_t entry_count() const {
    return static_cast<std::int64_t>(by_value_.size());
  }
  std::int64_t sample_size() const { return sample_size_; }
  std::int64_t observed_inserts() const { return observed_inserts_; }
  /// Frequency moment F_k of the synopsis counts, k ∈ {0, 1, 2}
  /// (F_0 = #entries, F_1 = Σc, F_2 = Σc² — the self-join proxy).
  double MomentF(int k) const;

  /// Internal orderings, exposed so the incremental-build property tests
  /// can pin bit-identity against a full rebuild.
  std::span<const ValueCount> ByValueOrder() const { return by_value_; }
  std::span<const ValueCount> ByCountDescOrder() const {
    return by_count_desc_;
  }
  std::span<const std::int64_t> PrefixSums() const { return prefix_; }

  /// Nonzero iff this view was produced through a PatchScratch (the
  /// scratch uses it to detect a stale mirror).
  std::uint64_t build_id() const { return build_id_; }

 private:
  /// Shared tail of both constructors: prefix sums (vector kernel),
  /// moments, capability flags, and the sample-size consistency check —
  /// one code path so full and incremental builds cannot drift.
  void Finish(Spec&& spec);
  /// The i-th point (0-based) of the value-sorted expanded sample.
  Value PointAt(std::int64_t index) const;
  /// Synopsis count of `value`; 0 when absent.
  Count CountOfValue(Value value) const;

  std::array<bool, kNumQueryKinds> answers_{};

  /// (count desc, value asc): identical order to the direct reporters'
  /// (estimate desc, value asc) sort because estimate is strictly
  /// increasing in count (scale > 0 whenever entries exist).
  std::vector<ValueCount> by_count_desc_;
  /// Value-ascending entries with exclusive prefix sums over counts:
  /// prefix_[0] = 0, prefix_[i + 1] = prefix_[i] + by_value_[i].count.
  std::vector<ValueCount> by_value_;
  std::vector<std::int64_t> prefix_;

  HotListParams hot_;
  FrequencyFn frequency_;
  Estimate distinct_;

  std::int64_t sample_size_ = 0;
  std::int64_t observed_inserts_ = 0;
  std::array<double, 3> moments_{};
  std::uint64_t build_id_ = 0;
};

}  // namespace aqua

#endif  // AQUA_VIEW_FROZEN_VIEW_H_
