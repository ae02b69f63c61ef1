#ifndef AQUA_CORE_COUNTING_SAMPLE_H_
#define AQUA_CORE_COUNTING_SAMPLE_H_

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
#include "sample/synopsis.h"

namespace aqua {

/// Options for a CountingSample.
struct CountingSampleOptions {
  /// Prespecified footprint bound m in memory words.
  Words footprint_bound = 1000;
  std::uint64_t seed = 0x19980531ULL;
  /// Threshold-raise policy; null selects the paper's ×1.1 default.
  std::shared_ptr<ThresholdPolicy> policy = nullptr;
  /// Disable to flip per-event coins instead of geometric skips (ablation).
  bool use_skip_counting = true;
};

/// A counting sample (Definition 3): a concise-sample variant whose counts
/// track *all* occurrences of a value inserted since the value was selected
/// for the sample — "since we have set aside a memory word for a count, why
/// not count the subsequent occurrences exactly?"
///
/// Process semantics (for threshold τ): for a value occurring c > 0 times
/// in the relation, flip a coin with heads probability 1/τ per occurrence
/// until the first heads; if the i-th flip is heads the value is in the
/// sample with count c - i + 1, else it is absent.
///
/// Maintenance (§4.1):
///  - Insert: look up the value (a lookup on *every* insert — the price of
///    exact subsequent counting).  Present: increment.  Absent: admit with
///    probability 1/τ (skip counting across absent-value inserts keeps this
///    to one draw per admission).
///  - Footprint overflow: raise τ to τ'; for each sample value flip first a
///    coin with heads probability τ/τ', then coins with heads probability
///    1/τ', decrementing the count on each tails until a heads or zero
///    (zero removes the value).
///  - Delete: decrement the count if present (Theorem 5 shows correctness —
///    the key advantage over concise samples, which cannot handle deletes).
///
/// Theorem 6: a value with frequency f_v is in the sample with probability
/// 1 - (1 - 1/τ)^{f_v}, and frequent values' counts are accurate to within
/// the one-time pre-selection loss (compensated by ĉ in hotlist/).
class CountingSample final : public Synopsis {
 public:
  explicit CountingSample(const CountingSampleOptions& options);

  /// Restores a counting sample from persisted state (see persist/).  The
  /// options supply the footprint bound, policy and a fresh seed; the
  /// restored sample is statistically equivalent to the saved one.  Fails
  /// if the entries violate the footprint bound or have counts < 1.
  static Result<CountingSample> Restore(
      const CountingSampleOptions& options, double threshold,
      std::int64_t observed_inserts, const std::vector<ValueCount>& entries);

  std::string_view Name() const override { return "counting-sample"; }

  /// Observes one inserted value.  Performs exactly one lookup.
  void Insert(Value value) override;

  /// Observes a whole batch of inserted values.  A counting sample must
  /// look up *every* insert (§4.1 — the price of exact subsequent
  /// counting), so unlike ConciseSample::InsertBatch there is no
  /// skip-ahead; instead the batch path hashes each chunk with the vector
  /// kernel (core/batch_kernels.h), prefetches the probe a few elements
  /// ahead, and probes with the precomputed hash.  Only the deterministic
  /// lookup is vectorized — draw-for-draw equivalent to per-element
  /// Insert().
  void InsertBatch(std::span<const Value> values);

  /// Observes one deleted value.  O(1) expected; never fails.
  Status Delete(Value value) override;

  Words Footprint() const override { return footprint_; }
  const UpdateCost& Cost() const override;
  std::int64_t ObservedInserts() const override { return observed_; }

  /// Total counted occurrences (Σ counts).  Unlike a concise sample this is
  /// *not* a uniform-sample size; use ToConciseEntries() for that.
  std::int64_t CountedOccurrences() const { return counted_; }

  std::int64_t DistinctValues() const {
    return static_cast<std::int64_t>(entries_.size());
  }
  std::int64_t PairCount() const { return pairs_; }
  double Threshold() const { return threshold_; }
  Words FootprintBound() const { return footprint_bound_; }

  Count CountOf(Value value) const {
    const Count* c = entries_.Find(value);
    return c == nullptr ? 0 : *c;
  }

  /// Snapshot of all entries (unspecified order).
  std::vector<ValueCount> Entries() const;

  /// Converts to a concise sample (§4, "Obtaining a concise sample from a
  /// counting sample") without touching base data: each pair <v, c> keeps
  /// its first (selected) occurrence and each of the other c-1 counted
  /// occurrences independently with probability 1/τ.  The result is a
  /// uniform random sample with selection probability 1/τ.
  std::vector<ValueCount> ToConciseEntries(std::uint64_t seed) const;

  /// Verifies internal accounting invariants.
  Status Validate() const;

 private:
  void InsertPrehashed(Value value, std::uint64_t hash);
  void Admit(Value value, std::uint64_t hash);
  void RaiseThreshold();

  Words footprint_bound_;
  bool use_skip_counting_;
  std::shared_ptr<ThresholdPolicy> policy_;
  Random random_;

  FlatHashMap<Value, Count> entries_;
  double threshold_ = 1.0;
  Words footprint_ = 0;
  std::int64_t counted_ = 0;
  std::int64_t pairs_ = 0;
  std::int64_t observed_ = 0;
  // Skip counter across *absent-value* inserts: number of further
  // admission trials to pass over before the next admission.
  std::int64_t admission_skip_ = 0;
  mutable UpdateCost cost_;
  std::vector<Count> scratch_counts_;
};

}  // namespace aqua

#endif  // AQUA_CORE_COUNTING_SAMPLE_H_
