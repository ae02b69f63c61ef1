#include "core/counting_sample.h"

#include <algorithm>

#include "common/check.h"
#include "core/batch_kernels.h"

namespace aqua {

namespace {

// Pre-size the entry table to the footprint bound (capped) so it never
// rehashes mid-stream and its slot layout evolves identically in the
// per-element and batched paths — see the matching helper in
// concise_sample.cc for why that matters.
std::size_t PresizeEntries(Words footprint_bound) {
  return static_cast<std::size_t>(
      std::min<Words>(footprint_bound, Words{1} << 20));
}

}  // namespace

CountingSample::CountingSample(const CountingSampleOptions& options)
    : footprint_bound_(options.footprint_bound),
      use_skip_counting_(options.use_skip_counting),
      policy_(options.policy ? options.policy : DefaultThresholdPolicy()),
      random_(options.seed),
      entries_(PresizeEntries(options.footprint_bound)) {
  AQUA_CHECK_GE(footprint_bound_, 2)
      << "a counting sample needs at least 2 words (one pair)";
}

Result<CountingSample> CountingSample::Restore(
    const CountingSampleOptions& options, double threshold,
    std::int64_t observed_inserts, const std::vector<ValueCount>& entries) {
  if (threshold < 1.0) {
    return Status::InvalidArgument("restored threshold below 1");
  }
  if (observed_inserts < 0) {
    return Status::InvalidArgument("negative observed insert count");
  }
  CountingSample sample(options);
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
    sample.counted_ += e.count;
    if (e.count > 1) ++sample.pairs_;
  }
  if (sample.footprint_ > sample.footprint_bound_) {
    return Status::InvalidArgument(
        "restored entries exceed the footprint bound");
  }
  sample.threshold_ = threshold;
  sample.observed_ = observed_inserts;
  if (threshold > 1.0 && sample.use_skip_counting_) {
    sample.admission_skip_ = sample.random_.Geometric(1.0 / threshold);
  }
  return sample;
}

void CountingSample::Insert(Value value) {
  InsertPrehashed(value, IntegerHash{}(value));
}

void CountingSample::InsertPrehashed(Value value, std::uint64_t hash) {
  ++observed_;
  // "unlike concise samples, they perform a look-up (into the counting
  // sample) at each update to the data warehouse."
  ++cost_.lookups;
  Count* count = entries_.FindPrehashed(value, hash);
  if (count != nullptr) {
    if (*count == 1) {
      footprint_ += 1;  // singleton -> pair
      ++pairs_;
    }
    *count += 1;
    ++counted_;
    while (footprint_ > footprint_bound_) RaiseThreshold();
    return;
  }
  // Absent value: admit with probability 1/τ.  τ == 1 admits everything
  // without randomness (the start-up phase).
  if (threshold_ <= 1.0) {
    Admit(value, hash);
    return;
  }
  if (use_skip_counting_) {
    // One geometric draw per admission, amortized over the subsequence of
    // absent-value inserts.
    if (admission_skip_ > 0) {
      --admission_skip_;
      return;
    }
    Admit(value, hash);
    admission_skip_ = random_.Geometric(1.0 / threshold_);
  } else {
    if (random_.Bernoulli(1.0 / threshold_)) Admit(value, hash);
  }
}

void CountingSample::InsertBatch(std::span<const Value> values) {
  while (!values.empty()) {
    std::uint64_t hashes[kBatchChunk];
    const std::size_t n = std::min(values.size(), kBatchChunk);
    HashBatch(values.first(n), hashes);
    for (std::size_t i = 0; i < n; ++i) {
      if (i + 8 < n) entries_.PrefetchHash(hashes[i + 8]);
      InsertPrehashed(values[i], hashes[i]);
    }
    values = values.subspan(n);
  }
}

void CountingSample::Admit(Value value, std::uint64_t hash) {
  entries_.TryInsertPrehashed(value, hash, 1);
  footprint_ += 1;
  ++counted_;
  while (footprint_ > footprint_bound_) RaiseThreshold();
}

Status CountingSample::Delete(Value value) {
  ++cost_.lookups;
  Count* count = entries_.Find(value);
  if (count == nullptr) {
    // Theorem 5: all of the value's admission flips to date were tails, so
    // the deleted occurrence's flip was among them; nothing to do.
    return Status::OK();
  }
  --counted_;
  if (*count == 1) {
    entries_.Erase(value);
    footprint_ -= 1;
    return Status::OK();
  }
  *count -= 1;
  if (*count == 1) {
    footprint_ -= 1;  // pair reverts to singleton
    --pairs_;
  }
  return Status::OK();
}

void CountingSample::RaiseThreshold() {
  ++cost_.threshold_raises;
  ThresholdRaiseContext context;
  context.threshold = threshold_;
  context.footprint = footprint_;
  context.footprint_bound = footprint_bound_;
  context.sample_size = counted_;
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

  // §4.1: for each value, flip a coin with heads probability τ/τ'; on
  // tails, decrement and keep flipping with heads probability 1/τ' until a
  // heads or count zero.  The first flips (probability 1 - τ/τ' of
  // affecting a value) are skip-counted across values — one draw per
  // affected value.
  const double first_tails = 1.0 - threshold_ / new_threshold;
  std::int64_t position = 0;
  std::int64_t next_affected =
      use_skip_counting_ ? random_.Geometric(first_tails) : 0;
  entries_.RetainIf([&](Value /*key*/, Count& count) {
    bool affected;
    if (use_skip_counting_) {
      affected = (next_affected == position);
      if (affected) next_affected = position + 1 + random_.Geometric(first_tails);
      ++position;
    } else {
      affected = random_.Bernoulli(first_tails);
    }
    if (!affected) return true;

    // First flip was tails: one decrement, then geometric further tails
    // with heads probability 1/τ'.
    Count decrements = 1 + random_.Geometric(1.0 / new_threshold);
    if (decrements >= count) {
      // Count reaches zero: the value leaves the sample.
      counted_ -= count;
      footprint_ -= EntryWords(count);
      if (count > 1) --pairs_;
      return false;
    }
    const Count new_count = count - decrements;
    counted_ -= decrements;
    if (count > 1 && new_count == 1) {
      footprint_ -= 1;
      --pairs_;
    }
    count = new_count;
    return true;
  });

  threshold_ = new_threshold;
  // Pending admission skips were drawn for the old 1/τ; redraw lazily by
  // clearing (the next absent insert redraws).  Clearing to zero would
  // *admit* the next absent value deterministically, which would bias
  // admissions; instead redraw now.
  if (use_skip_counting_) {
    admission_skip_ = random_.Geometric(1.0 / threshold_);
  }
}

const UpdateCost& CountingSample::Cost() const {
  cost_.coin_flips = random_.FlipCount();
  return cost_;
}

std::vector<ValueCount> CountingSample::Entries() const {
  std::vector<ValueCount> out;
  out.reserve(entries_.size());
  for (const auto& entry : entries_) {
    out.push_back(ValueCount{entry.key, entry.value});
  }
  return out;
}

std::vector<ValueCount> CountingSample::ToConciseEntries(
    std::uint64_t seed) const {
  Random random(seed);
  std::vector<ValueCount> out;
  out.reserve(entries_.size());
  const double keep = 1.0 / threshold_;
  for (const auto& entry : entries_) {
    // Keep the selected occurrence; each of the other count-1 occurrences
    // survives a coin with heads probability 1/τ.
    const Count kept = 1 + random.Binomial(entry.value - 1, keep);
    out.push_back(ValueCount{entry.key, kept});
  }
  return out;
}

Status CountingSample::Validate() const {
  Words footprint = 0;
  std::int64_t counted = 0;
  std::int64_t pairs = 0;
  for (const auto& entry : entries_) {
    if (entry.value < 1) {
      return Status::Internal("entry with non-positive count");
    }
    footprint += EntryWords(entry.value);
    counted += entry.value;
    if (entry.value > 1) ++pairs;
  }
  if (footprint != footprint_) {
    return Status::Internal("footprint accounting mismatch");
  }
  if (counted != counted_) {
    return Status::Internal("counted-occurrences accounting mismatch");
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
