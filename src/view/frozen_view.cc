#include "view/frozen_view.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "core/batch_kernels.h"
#include "estimate/quantiles.h"

namespace aqua {

namespace {

bool ValueLess(const ValueCount& a, const ValueCount& b) {
  return a.value < b.value;
}

// The count-descending order with value as the tiebreak — a total order
// over unique values, which is what makes a merged sequence unique and
// hence bit-identical to a full sort.
bool CountDescLess(const ValueCount& a, const ValueCount& b) {
  if (a.count != b.count) return a.count > b.count;
  return a.value < b.value;
}

}  // namespace

FrozenView::FrozenView(Spec spec) {
  by_value_ = std::move(spec.entries);
  std::sort(by_value_.begin(), by_value_.end(), ValueLess);
  by_count_desc_ = by_value_;
  std::sort(by_count_desc_.begin(), by_count_desc_.end(), CountDescLess);
  Finish(std::move(spec));
}

FrozenView::FrozenView(Spec spec, const FrozenView& previous,
                       PatchScratch& scratch, ViewPatchStats* stats) {
  const std::size_t new_n = spec.entries.size();
  // The previous epoch's entries in *snapshot* order, retained by the
  // scratch.  Valid only when this scratch produced `previous`; otherwise
  // (first patch after a full build, restore, …) fall back to the sorted
  // by-value order, which simply makes the positional prefix below empty
  // and routes everything through the hash phase.
  const bool have_prev_order =
      previous.build_id_ != 0 && previous.build_id_ == scratch.last_build_id;
  const std::vector<ValueCount>& old_entries =
      have_prev_order ? scratch.prev_entries : previous.by_value_;
  const std::size_t old_n = old_entries.size();

  scratch.delta.clear();
  scratch.stale_old.clear();

  // Positional fast path.  A snapshot's entry map iterates in a stable
  // order across epochs — a count bump never moves an entry, only
  // inserts and evictions perturb the sequence — so the aligned prefix
  // of the old and new entry sequences covers everything up to the first
  // structural change.  Diffing that prefix is a sequential two-stream
  // compare with no hash work at all; changed values record their old
  // incarnation for the merges' skip list.
  std::size_t i = 0;
  while (i < new_n && i < old_n &&
         spec.entries[i].value == old_entries[i].value) {
    if (spec.entries[i].count != old_entries[i].count) {
      scratch.stale_old.push_back(old_entries[i]);
      scratch.delta.push_back(spec.entries[i]);
    }
    ++i;
  }

  // Hash phase for the divergent suffixes: mirror the remaining old
  // entries (gen 0), probe the remaining new ones (marking visits), then
  // sweep the unvisited — those are the removals.  Cost is proportional
  // to the divergence, not to m.  Value uniqueness keeps the phases
  // independent: a value in the new suffix cannot also sit in the old
  // prefix (it would be a duplicate in the old sequence), and vice versa.
  std::size_t removed = 0;
  if (i < new_n || i < old_n) {
    scratch.mirror.Clear();
    scratch.mirror.Reserve(old_n - i);
    for (std::size_t j = i; j < old_n; ++j) {
      scratch.mirror.TryInsert(old_entries[j].value,
                               PatchScratch::Slot{old_entries[j].count, 0});
    }
    // Hash once per entry: the ring holds the hashes issued to the
    // prefetcher kPrefetchAhead iterations ago, so the probe reuses them
    // instead of re-mixing the key.
    constexpr std::size_t kPrefetchAhead = 8;
    std::size_t hash_ring[kPrefetchAhead];
    const std::size_t warm = std::min(i + kPrefetchAhead, new_n);
    for (std::size_t k = i; k < warm; ++k) {
      hash_ring[k % kPrefetchAhead] = IntegerHash{}(spec.entries[k].value);
      scratch.mirror.PrefetchHash(hash_ring[k % kPrefetchAhead]);
    }
    for (; i < new_n; ++i) {
      const std::size_t hash = hash_ring[i % kPrefetchAhead];
      if (i + kPrefetchAhead < new_n) {
        const std::size_t ahead =
            IntegerHash{}(spec.entries[i + kPrefetchAhead].value);
        hash_ring[i % kPrefetchAhead] = ahead;
        scratch.mirror.PrefetchHash(ahead);
      }
      const ValueCount& e = spec.entries[i];
      PatchScratch::Slot* slot = scratch.mirror.FindPrehashed(e.value, hash);
      if (slot == nullptr) {
        scratch.delta.push_back(e);  // added
      } else {
        if (slot->count != e.count) {
          scratch.stale_old.push_back({e.value, slot->count});
          scratch.delta.push_back(e);  // changed
        }
        slot->gen = 1;  // visited
      }
    }
    for (const auto& entry : scratch.mirror) {
      if (entry.value.gen == 0) {
        scratch.stale_old.push_back({entry.key, entry.value.count});
        ++removed;
      }
    }
  }

  const std::size_t d = scratch.delta.size();
  const bool full_sort = d * 2 > new_n || previous.by_value_.empty();
  if (full_sort) {
    // Churn beyond half the entry set: two full sorts beat a merge that
    // touches everything anyway.  Still bit-identical — it *is* the full
    // build.
    scratch.prev_entries = spec.entries;  // keep the snapshot order
    by_value_ = std::move(spec.entries);
    std::sort(by_value_.begin(), by_value_.end(), ValueLess);
    by_count_desc_ = by_value_;
    std::sort(by_count_desc_.begin(), by_count_desc_.end(), CountDescLess);
  } else {
    // Sort only the delta, then linear-merge it into the previous
    // orderings.  The stale-skip list holds the previous incarnation of
    // every changed/removed entry; it is a subset of each previous
    // ordering under that ordering's comparator, so a two-pointer walk
    // drops exactly the old incarnations — no per-entry mirror probe.
    // Each comparator is a total order over unique values, so each merged
    // sequence is the unique sorted sequence of the new entry set.
    // Both merges are event-driven: the only positions where the output
    // deviates from the previous ordering are the O(churn) events (a
    // stale incarnation to skip, a delta entry to insert); everything
    // between consecutive events is a bulk range-copy of the previous
    // ordering, so the merge cost is memcpy-bound, not branch-bound.
    std::sort(scratch.delta.begin(), scratch.delta.end(), ValueLess);
    std::sort(scratch.stale_old.begin(), scratch.stale_old.end(), ValueLess);
    const std::size_t ns = scratch.stale_old.size();
    const std::vector<ValueCount>& prev_v = previous.by_value_;
    by_value_.reserve(new_n);
    std::size_t pi = 0;
    std::size_t di = 0;
    std::size_t si = 0;
    while (di < d || si < ns) {
      Value ev;
      if (si >= ns) {
        ev = scratch.delta[di].value;
      } else if (di >= d) {
        ev = scratch.stale_old[si].value;
      } else {
        ev = std::min(scratch.delta[di].value, scratch.stale_old[si].value);
      }
      const auto run_end = std::lower_bound(
          prev_v.begin() + static_cast<std::ptrdiff_t>(pi), prev_v.end(), ev,
          [](const ValueCount& e, Value v) { return e.value < v; });
      by_value_.insert(by_value_.end(),
                       prev_v.begin() + static_cast<std::ptrdiff_t>(pi),
                       run_end);
      pi = static_cast<std::size_t>(run_end - prev_v.begin());
      // A changed value fires both arms: its stale incarnation is skipped
      // and the delta's new incarnation takes the same position.
      if (si < ns && scratch.stale_old[si].value == ev) {
        AQUA_DCHECK(pi < prev_v.size() && prev_v[pi].value == ev);
        ++pi;
        ++si;
      }
      if (di < d && scratch.delta[di].value == ev) {
        by_value_.push_back(scratch.delta[di++]);
      }
    }
    by_value_.insert(by_value_.end(),
                     prev_v.begin() + static_cast<std::ptrdiff_t>(pi),
                     prev_v.end());
    AQUA_CHECK_EQ(by_value_.size(), new_n);

    std::sort(scratch.delta.begin(), scratch.delta.end(), CountDescLess);
    std::sort(scratch.stale_old.begin(), scratch.stale_old.end(),
              CountDescLess);
    const std::vector<ValueCount>& prev_c = previous.by_count_desc_;
    by_count_desc_.reserve(new_n);
    pi = 0;
    di = 0;
    si = 0;
    while (di < d || si < ns) {
      // Next event under the count-desc order.  A stale and a delta entry
      // can never compare equal (same value implies a changed count), so
      // the order is strict.
      const bool take_stale =
          si < ns && (di >= d || CountDescLess(scratch.stale_old[si],
                                               scratch.delta[di]));
      const ValueCount& ev =
          take_stale ? scratch.stale_old[si] : scratch.delta[di];
      const auto run_end =
          std::lower_bound(prev_c.begin() + static_cast<std::ptrdiff_t>(pi),
                           prev_c.end(), ev, CountDescLess);
      by_count_desc_.insert(by_count_desc_.end(),
                            prev_c.begin() + static_cast<std::ptrdiff_t>(pi),
                            run_end);
      pi = static_cast<std::size_t>(run_end - prev_c.begin());
      if (take_stale) {
        // Stale entries carry exactly their previous (value, count), so
        // the skipped previous entry is the event itself.
        AQUA_DCHECK(pi < prev_c.size() && prev_c[pi].value == ev.value &&
                    prev_c[pi].count == ev.count);
        ++pi;
        ++si;
      } else {
        by_count_desc_.push_back(scratch.delta[di++]);
      }
    }
    by_count_desc_.insert(by_count_desc_.end(),
                          prev_c.begin() + static_cast<std::ptrdiff_t>(pi),
                          prev_c.end());
    AQUA_CHECK_EQ(by_count_desc_.size(), new_n);
  }

  if (!full_sort) {
    // The next patch diffs against this build's snapshot order.
    scratch.prev_entries = std::move(spec.entries);
  }
  build_id_ = scratch.next_build_id++;
  scratch.last_build_id = build_id_;
  if (stats != nullptr) {
    stats->total_entries = new_n;
    stats->delta_entries = d;
    stats->removed_entries = removed;
    stats->full_sort = full_sort;
    stats->delta_fraction =
        static_cast<double>(d + removed) /
        static_cast<double>(new_n > 0 ? new_n : std::size_t{1});
  }
  Finish(std::move(spec));
}

void FrozenView::Finish(Spec&& spec) {
  frequency_ = std::move(spec.frequency);
  sample_size_ = spec.sample_size;
  observed_inserts_ = spec.observed_inserts;
  prefix_.resize(by_value_.size() + 1);
  ExclusivePrefixCounts(by_value_, prefix_.data());
  double f2 = 0.0;
  for (const ValueCount& e : by_value_) {
    const auto c = static_cast<double>(e.count);
    f2 += c * c;
  }
  moments_ = {static_cast<double>(by_value_.size()),
              static_cast<double>(prefix_.back()), f2};

  if (spec.hot_list.has_value()) {
    hot_ = *spec.hot_list;
    answers_[static_cast<int>(QueryKind::kHotList)] = true;
  }
  if (frequency_ != nullptr) {
    answers_[static_cast<int>(QueryKind::kFrequency)] = true;
  }
  if (spec.count_where || spec.quantile) {
    // The direct paths scale by the expanded point-sample size; the view
    // scales by the frozen sample_size.  They must be the same number or
    // the bit-equality contract breaks.
    AQUA_CHECK_EQ(prefix_.back(), sample_size_);
  }
  answers_[static_cast<int>(QueryKind::kCountWhere)] = spec.count_where;
  answers_[static_cast<int>(QueryKind::kQuantile)] = spec.quantile;
  if (spec.distinct.has_value()) {
    distinct_ = *spec.distinct;
    answers_[static_cast<int>(QueryKind::kDistinct)] = true;
  }
}

HotList FrozenView::HotListAnswer(const HotListQuery& query) const {
  HotList out;
  HotListAnswerInto(query, &out);
  return out;
}

void FrozenView::HotListAnswerInto(const HotListQuery& query,
                                   HotList* out) const {
  out->clear();
  // Same cut as internal_hotlist::Report: max(floor, c_k), where c_k is the
  // k-th largest count — here a direct index into the count-descending
  // order (KthLargest clamps k to the entry count, so k > size selects the
  // minimum).
  double cut = hot_.floor_is_beta ? query.beta : hot_.fixed_floor;
  if (query.k > 0 && !by_count_desc_.empty()) {
    const std::size_t k = std::min<std::size_t>(
        static_cast<std::size_t>(query.k), by_count_desc_.size());
    cut = std::max(cut, static_cast<double>(by_count_desc_[k - 1].count));
  }
  for (const ValueCount& e : by_count_desc_) {
    // Counts only decrease along this order, so the first miss ends the
    // report — this is the O(k) prefix walk.
    if (static_cast<double>(e.count) < cut) break;
    out->push_back(HotListItem{
        e.value, static_cast<double>(e.count) * hot_.scale + hot_.offset,
        e.count});
  }
}

Estimate FrozenView::FrequencyAnswer(Value value, double confidence) const {
  return frequency_(CountOfValue(value), confidence);
}

Estimate FrozenView::CountWhereRangeAnswer(const ValueRange& range,
                                           double confidence,
                                           const QueryContext& ctx) const {
  std::int64_t hits = 0;
  if (range.low <= range.high) {
    const auto lo = std::lower_bound(
        by_value_.begin(), by_value_.end(), range.low,
        [](const ValueCount& e, Value v) { return e.value < v; });
    const auto hi = std::upper_bound(
        by_value_.begin(), by_value_.end(), range.high,
        [](Value v, const ValueCount& e) { return v < e.value; });
    hits = prefix_[hi - by_value_.begin()] - prefix_[lo - by_value_.begin()];
  }
  return SampleEstimator::CountWhereFromHits(hits, sample_size_,
                                             ctx.observed_inserts,
                                             confidence);
}

Estimate FrozenView::QuantileAnswer(double q, double confidence) const {
  AQUA_CHECK(q >= 0.0 && q <= 1.0);
  return internal_quantile::WithBounds(
      [this](double qq) {
        return PointAt(static_cast<std::int64_t>(internal_quantile::IndexFor(
            qq, static_cast<std::size_t>(sample_size_))));
      },
      sample_size_, q, confidence);
}

Estimate FrozenView::DistinctAnswer() const { return distinct_; }

double FrozenView::MomentF(int k) const {
  AQUA_CHECK(k >= 0 && k <= 2);
  return moments_[static_cast<std::size_t>(k)];
}

Value FrozenView::PointAt(std::int64_t index) const {
  // Entry j holds the expanded points with indices [prefix_[j],
  // prefix_[j+1]); upper_bound lands one past the owning entry.
  const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), index);
  const auto j = static_cast<std::size_t>(it - prefix_.begin()) - 1;
  return by_value_[j].value;
}

Count FrozenView::CountOfValue(Value value) const {
  const auto it = std::lower_bound(
      by_value_.begin(), by_value_.end(), value,
      [](const ValueCount& e, Value v) { return e.value < v; });
  if (it == by_value_.end() || it->value != value) return 0;
  return it->count;
}

}  // namespace aqua
