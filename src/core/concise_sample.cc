#include "core/concise_sample.h"

#include <algorithm>
#include <type_traits>

#include "common/check.h"
#include "core/batch_kernels.h"

namespace aqua {

namespace {

// The entry table is pre-sized to the footprint bound once, at
// construction: entries can never exceed the bound, so the table never
// rehashes mid-stream (batches never rehash mid-flight) and — critically —
// its slot layout evolves identically whether the stream arrives
// per-element or batched, which the draw-for-draw equivalence of the
// threshold-raise eviction scan depends on.  Capped so a pathological
// bound cannot pre-allocate unbounded memory (above the cap the table
// grows by doubling, still deterministically in both paths).
std::size_t PresizeEntries(Words footprint_bound) {
  return static_cast<std::size_t>(
      std::min<Words>(footprint_bound, Words{1} << 20));
}

}  // namespace

ConciseSample::ConciseSample(const ConciseSampleOptions& options)
    : footprint_bound_(options.footprint_bound),
      use_skip_counting_(options.use_skip_counting),
      policy_(options.policy ? options.policy : DefaultThresholdPolicy()),
      random_(options.seed),
      selector_(random_, 1.0),
      entries_(PresizeEntries(options.footprint_bound)) {
  AQUA_CHECK_GE(footprint_bound_, 2)
      << "a concise sample needs at least 2 words (one pair)";
}

Result<ConciseSample> ConciseSample::Restore(
    const ConciseSampleOptions& options, double threshold,
    std::int64_t observed_inserts, const std::vector<ValueCount>& entries) {
  if (threshold < 1.0) {
    return Status::InvalidArgument("restored threshold below 1");
  }
  if (observed_inserts < 0) {
    return Status::InvalidArgument("negative observed insert count");
  }
  ConciseSample sample(options);
  for (const ValueCount& e : entries) {
    if (e.count < 1) {
      return Status::InvalidArgument("restored entry with count < 1");
    }
    auto [count, inserted] = sample.entries_.TryInsert(e.value, e.count);
    if (!inserted) {
      return Status::InvalidArgument("duplicate value in restored entries");
    }
    (void)count;
    sample.footprint_ += EntryWords(e.count);
    sample.sample_size_ += e.count;
    if (e.count > 1) ++sample.pairs_;
  }
  if (sample.footprint_ > sample.footprint_bound_) {
    return Status::InvalidArgument(
        "restored entries exceed the footprint bound");
  }
  sample.threshold_ = threshold;
  sample.observed_ = observed_inserts;
  sample.selector_.Reset(sample.random_, 1.0 / threshold);
  return sample;
}

void ConciseSample::Insert(Value value) {
  ++observed_;
  if (use_skip_counting_) {
    if (!selector_.ShouldSelect(random_)) return;
  } else {
    // Naive per-element coin flip (ablation baseline).
    if (!random_.Bernoulli(1.0 / threshold_)) return;
  }
  Select(value);
  // The insertion may have grown the footprint past the bound; create room.
  // Each insertion adds at most one word, and a successful raise removes at
  // least one, so the loop re-raises only when a raise failed to shrink
  // the footprint ("if the footprint has not decreased, we raise the
  // threshold and try again").
  while (footprint_ > footprint_bound_) RaiseThreshold();
}

void ConciseSample::InsertBatch(std::span<const Value> values) {
  if (!use_skip_counting_) {
    // The ablation baseline flips one coin per element anyway; nothing to
    // amortize beyond the call overhead.
    for (Value v : values) Insert(v);
    return;
  }
  std::size_t i = 0;
  const std::size_t n = values.size();
  // Dense start-up regime: at τ == 1 every element is selected and the
  // selector consumes no randomness at all, so the chunk funnels straight
  // through the vector hash kernel with the probe prefetched a few
  // elements ahead.  Draw-for-draw identical to per-element Insert(),
  // which also takes no draws at τ == 1.
  while (i < n && threshold_ == 1.0) {
    std::uint64_t h[kBatchChunk];
    const std::size_t m = std::min(n - i, kBatchChunk);
    HashBatch(values.subspan(i, m), h);
    std::size_t j = 0;
    while (j < m && threshold_ == 1.0) {
      if (j + 8 < m) entries_.PrefetchHash(h[j + 8]);
      ++observed_;
      SelectPrehashed(values[i + j], h[j]);
      ++j;
      while (footprint_ > footprint_bound_) RaiseThreshold();
    }
    i += j;
  }
  while (i < n) {
    const auto left = static_cast<std::int64_t>(n - i);
    const std::int64_t pending = selector_.PendingSkip();
    if (pending >= left) {
      // No selection lands in the rest of this batch: fast-forward and done.
      selector_.SkipAhead(left);
      observed_ += left;
      return;
    }
    // Jump straight to the next selected element.
    selector_.SkipAhead(pending);
    i += static_cast<std::size_t>(pending);
    observed_ += pending + 1;
    const bool selected = selector_.ShouldSelect(random_);
    AQUA_DCHECK(selected);
    (void)selected;
    Select(values[i]);
    ++i;
    // Same per-selection overflow handling as Insert(): footprint checks
    // are already amortized to one per *selected* element.
    while (footprint_ > footprint_bound_) RaiseThreshold();
  }
}

Status ConciseSample::MergeFrom(const ConciseSample& other) {
  if (&other == this) {
    return Status::InvalidArgument("cannot merge a concise sample into itself");
  }
  // Align this side to τ' = max(τ, τ_other) (no-op when already there).
  const double target = std::max(threshold_, other.threshold_);
  if (target > threshold_) SubsampleTo(target);

  // Align the incoming side while unioning: each of an entry's count points
  // survives independently with probability τ_other/τ' (an exact binomial
  // draw — the batch counterpart of per-point coins).  The union can
  // transiently exceed the footprint bound before the overflow path trims
  // it back, so reserve its upper bound up front — the merge scan never
  // rehashes mid-flight.
  entries_.Reserve(entries_.size() + other.entries_.size());
  const double keep = other.threshold_ / target;
  for (const auto& entry : other.entries_) {
    const Count kept =
        keep >= 1.0 ? entry.value
                    : static_cast<Count>(random_.Binomial(entry.value, keep));
    if (kept == 0) continue;
    auto [count, inserted] = entries_.TryInsert(entry.key, kept);
    if (inserted) {
      footprint_ += EntryWords(kept);
      if (kept > 1) ++pairs_;
    } else {
      if (*count == 1) {
        footprint_ += 1;  // singleton -> pair: the count word materializes
        ++pairs_;
      }
      *count += kept;
    }
    sample_size_ += kept;
  }
  observed_ += other.observed_;
  // The union may overflow this sample's bound; the normal overflow path
  // restores the invariant (and keeps uniformity, Theorem 2).
  while (footprint_ > footprint_bound_) RaiseThreshold();
  return Status::OK();
}

ConciseSample ConciseSample::Drain() {
  ConciseSample drained = std::move(*this);
  // The move copied the threshold, the bound and the (trivially copyable)
  // random stream and skip state; it left the entry table hollow and the
  // policy null.  Rebuild this sample as an empty one around them, with
  // the table pre-sized as at construction.
  static_assert(std::is_trivially_copyable_v<Random> &&
                std::is_trivially_copyable_v<SkipSampler>);
  entries_ = FlatHashMap<Value, Count>(PresizeEntries(footprint_bound_));
  policy_ = drained.policy_;
  footprint_ = 0;
  sample_size_ = 0;
  pairs_ = 0;
  observed_ = 0;
  return drained;
}

void ConciseSample::Select(Value value) {
  SelectPrehashed(value, IntegerHash{}(value));
}

void ConciseSample::SelectPrehashed(Value value, std::uint64_t hash) {
  ++cost_.lookups;
  auto [count, inserted] = entries_.TryInsertPrehashed(value, hash, 1);
  if (inserted) {
    // New singleton: one more word, one more sample point.
    footprint_ += 1;
    sample_size_ += 1;
    return;
  }
  if (*count == 1) {
    // Singleton -> pair: the count word materializes.
    footprint_ += 1;
    ++pairs_;
  }
  *count += 1;
  sample_size_ += 1;
}

void ConciseSample::RaiseThreshold() {
  ++cost_.threshold_raises;
  ThresholdRaiseContext context;
  context.threshold = threshold_;
  context.footprint = footprint_;
  context.footprint_bound = footprint_bound_;
  context.sample_size = sample_size_;
  context.pairs = pairs_;
  context.singletons = DistinctValues() - pairs_;
  if (policy_->NeedsCounts()) {
    scratch_counts_.clear();
    scratch_counts_.reserve(entries_.size());
    for (const auto& entry : entries_) scratch_counts_.push_back(entry.value);
    context.counts = &scratch_counts_;
  }
  const double new_threshold = policy_->NextThreshold(context);
  AQUA_CHECK(new_threshold > threshold_)
      << "threshold policy must strictly increase the threshold";
  SubsampleTo(new_threshold);
}

void ConciseSample::SubsampleTo(double new_threshold) {
  AQUA_DCHECK_GT(new_threshold, threshold_);
  // Subject each of the sample-size(S) points to the stricter threshold:
  // retain independently with probability τ/τ'.  The concise representation
  // flattens to a sequence of sample points (an entry with count c spans c
  // positions); eviction positions arrive with geometric gaps so the number
  // of draws is one per evicted point, not one per point.
  const double evict_probability = 1.0 - threshold_ / new_threshold;
  std::int64_t position = 0;  // start of the current entry's point range
  std::int64_t next_evict =
      use_skip_counting_ ? random_.Geometric(evict_probability) : 0;
  entries_.RetainIf([&](Value /*key*/, Count& count) {
    const std::int64_t end = position + count;
    Count evicted = 0;
    if (use_skip_counting_) {
      while (next_evict < end) {
        ++evicted;
        next_evict += 1 + random_.Geometric(evict_probability);
        if (evicted == count) {
          // All points of this entry are gone; fast-forward is implicit.
          break;
        }
      }
      // A break above may leave next_evict inside this entry's range even
      // though no points remain; re-align it past the range.
      while (next_evict < end) {
        next_evict += 1 + random_.Geometric(evict_probability);
      }
    } else {
      for (Count i = 0; i < count; ++i) {
        if (random_.Bernoulli(evict_probability)) ++evicted;
      }
    }
    position = end;

    if (evicted == 0) return true;
    const Count new_count = count - evicted;
    sample_size_ -= evicted;
    if (new_count == 0) {
      // Entry removed: a singleton frees 1 word, a pair frees 2.
      footprint_ -= EntryWords(count);
      if (count > 1) --pairs_;
      return false;
    }
    if (count > 1 && new_count == 1) {
      // Pair reverts to singleton: the count word is freed.
      footprint_ -= 1;
      --pairs_;
    }
    count = new_count;
    return true;
  });

  threshold_ = new_threshold;
  if (use_skip_counting_) selector_.Reset(random_, 1.0 / threshold_);
}

const UpdateCost& ConciseSample::Cost() const {
  cost_.coin_flips = random_.FlipCount();
  return cost_;
}

std::vector<ValueCount> ConciseSample::Entries() const {
  std::vector<ValueCount> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    out.push_back(ValueCount{entry.key, entry.value});
  }
  return out;
}

std::vector<Value> ConciseSample::ToPointSample() const {
  std::vector<Value> points;
  points.reserve(static_cast<std::size_t>(sample_size_));
  for (const auto& entry : entries_) {
    for (Count i = 0; i < entry.value; ++i) points.push_back(entry.key);
  }
  return points;
}

Status ConciseSample::Validate() const {
  Words footprint = 0;
  std::int64_t sample_size = 0;
  std::int64_t pairs = 0;
  for (const auto& entry : entries_) {
    if (entry.value < 1) {
      return Status::Internal("entry with non-positive count");
    }
    footprint += EntryWords(entry.value);
    sample_size += entry.value;
    if (entry.value > 1) ++pairs;
  }
  if (footprint != footprint_) {
    return Status::Internal("footprint accounting mismatch");
  }
  if (sample_size != sample_size_) {
    return Status::Internal("sample-size accounting mismatch");
  }
  if (pairs != pairs_) {
    return Status::Internal("pair-count accounting mismatch");
  }
  if (footprint_ > footprint_bound_) {
    return Status::Internal("footprint exceeds bound");
  }
  return Status::OK();
}

}  // namespace aqua
