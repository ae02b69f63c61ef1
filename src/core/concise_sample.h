#ifndef AQUA_CORE_CONCISE_SAMPLE_H_
#define AQUA_CORE_CONCISE_SAMPLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "container/flat_hash_map.h"
#include "core/threshold_policy.h"
#include "core/value_count.h"
#include "random/random.h"
#include "random/skip_sampler.h"
#include "sample/synopsis.h"

namespace aqua {

/// Options for a ConciseSample.
struct ConciseSampleOptions {
  /// Prespecified footprint bound m in memory words (Definition 2).
  Words footprint_bound = 1000;
  /// Seed for the synopsis's private random stream.
  std::uint64_t seed = 0x19980531ULL;
  /// Threshold-raise policy; null selects the paper's ×1.1 default.
  std::shared_ptr<ThresholdPolicy> policy = nullptr;
  /// When false, disables geometric skip counting and flips a coin per
  /// stream element / per sample point — the naive baseline for the
  /// update-time ablation (bench/ablation_skip).  Statistically identical.
  bool use_skip_counting = true;
};

/// A concise sample (Definition 1): "a uniform random sample of the data
/// set such that values appearing more than once in the sample are
/// represented as a value and a count."
///
/// This class implements the incremental maintenance algorithm of §3.1 with
/// an entry threshold τ (initially 1):
///
///  - Each inserted tuple is selected with probability 1/τ (via geometric
///    skip counting — one draw per selected tuple).
///  - A selected value is looked up: a pair's count is incremented, a
///    singleton becomes a pair, an absent value becomes a singleton.  The
///    latter two grow the footprint by one word.
///  - When the footprint exceeds the prespecified bound, the threshold is
///    raised to τ' (policy-chosen, default 1.1τ) and every *sample point*
///    is retained independently with probability τ/τ' (again via skip
///    counting — one draw per evicted point).  If the footprint did not
///    shrink, the threshold is raised again.
///
/// Theorem 2: for any sequence of insertions and any sequence of increasing
/// thresholds, the result is a uniform random sample of the stream whose
/// selection probability is 1/τ.  Amortized expected update time is O(1)
/// per insert regardless of the data distribution.
///
/// Invariant glossary (Definition 2):
///   sample-size  = Σ counts                (represented sample points)
///   footprint    = #entries + #pairs       (memory words)
class ConciseSample final : public Synopsis {
 public:
  explicit ConciseSample(const ConciseSampleOptions& options);

  /// Restores a concise sample from persisted state (see persist/):
  /// `entries` with their counts, the threshold τ in force, and the number
  /// of observed inserts.  The options supply the footprint bound, policy
  /// and a *fresh* seed — the restored sample is statistically equivalent
  /// to the saved one but does not replay the saved random stream.
  /// Fails if the entries violate the footprint bound or have counts < 1.
  static Result<ConciseSample> Restore(const ConciseSampleOptions& options,
                                       double threshold,
                                       std::int64_t observed_inserts,
                                       const std::vector<ValueCount>& entries);

  std::string_view Name() const override { return "concise-sample"; }

  /// Observes one inserted value from the load stream.  O(1) amortized.
  void Insert(Value value) override;

  /// Observes a whole batch of inserted values.  Exploits the geometric
  /// skip counter to jump over unselected elements in O(1) each
  /// (SkipSampler::SkipAhead), so the cost is O(#selected + 1) per batch
  /// instead of one call (and one countdown decrement) per element; in the
  /// dense start-up regime (τ == 1, everything selected) the batch is
  /// funneled through the vector hash kernel in chunks instead.
  /// Draw-for-draw equivalent to calling Insert() on each element in order:
  /// the random stream, entries, threshold, and all counters end identical.
  void InsertBatch(std::span<const Value> values);

  /// Merges `other` — a concise sample of a *disjoint* substream — into
  /// this sample (Theorem 2 threshold alignment): both sides are aligned to
  /// τ' = max(τ_this, τ_other) by retaining each sample point independently
  /// with probability τ_i/τ', then the entries are unioned.  Since each
  /// side is a uniform sample of its substream with selection probability
  /// 1/τ_i, the union is a uniform sample of the concatenated stream with
  /// selection probability 1/τ'.  If the union overflows this sample's
  /// footprint bound, the threshold is raised further (the normal §3.1
  /// overflow path).  Fails on self-merge.
  Status MergeFrom(const ConciseSample& other);

  /// Hands over everything this sample took since its last drain and
  /// leaves it empty at the same threshold τ, on the same random stream
  /// with the same pending skip: later inserts are selected exactly as if
  /// nothing had been taken, so this sample stays a Bernoulli(1/τ) sample
  /// of the arrivals after the drain (ShardedSynopsis::DrainInto merges the
  /// returned sample into the epoch).  The entries are moved, not copied;
  /// the cost is one fresh pre-sized entry table.  The returned sample
  /// shares this one's random state, so it is for MergeFrom into another
  /// sample, not for further inserts.
  ConciseSample Drain();

  /// Footprint in words: #distinct represented values + #pairs.
  Words Footprint() const override { return footprint_; }

  const UpdateCost& Cost() const override;

  std::int64_t ObservedInserts() const override { return observed_; }

  /// Definition 2 sample-size: the number of sample points this concise
  /// representation stands for.  Always >= Footprint() - #pairs.
  std::int64_t SampleSize() const { return sample_size_; }

  /// Number of distinct values currently represented.
  std::int64_t DistinctValues() const {
    return static_cast<std::int64_t>(entries_.size());
  }

  /// Number of entries stored as <value, count> pairs (count >= 2).
  std::int64_t PairCount() const { return pairs_; }

  /// Current entry threshold τ.
  double Threshold() const { return threshold_; }

  Words FootprintBound() const { return footprint_bound_; }

  /// Sample count of `value` (0 if not in the sample).
  Count CountOf(Value value) const {
    const Count* c = entries_.Find(value);
    return c == nullptr ? 0 : *c;
  }

  /// Snapshot of all entries (unspecified order).
  std::vector<ValueCount> Entries() const;

  /// Expands the concise representation into the multiset of sample points
  /// it stands for (size = SampleSize()); for use as a plain uniform sample
  /// in any sampling-based estimator.
  std::vector<Value> ToPointSample() const;

  /// Verifies all internal accounting invariants (footprint, sample-size,
  /// pair count vs. the entry map).  For tests and debugging.
  Status Validate() const;

 private:
  void Select(Value value);
  void SelectPrehashed(Value value, std::uint64_t hash);
  void RaiseThreshold();
  /// Theorem-2 subsampling scan: retains each sample point independently
  /// with probability τ/new_threshold, then installs the new threshold and
  /// re-primes the skip counter.  Shared by RaiseThreshold and MergeFrom.
  void SubsampleTo(double new_threshold);

  Words footprint_bound_;
  bool use_skip_counting_;
  std::shared_ptr<ThresholdPolicy> policy_;
  Random random_;
  SkipSampler selector_;

  FlatHashMap<Value, Count> entries_;
  double threshold_ = 1.0;
  Words footprint_ = 0;
  std::int64_t sample_size_ = 0;
  std::int64_t pairs_ = 0;
  std::int64_t observed_ = 0;
  mutable UpdateCost cost_;
  std::vector<Count> scratch_counts_;  // reused by NeedsCounts policies
};

}  // namespace aqua

#endif  // AQUA_CORE_CONCISE_SAMPLE_H_
