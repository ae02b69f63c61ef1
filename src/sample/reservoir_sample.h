#ifndef AQUA_SAMPLE_RESERVOIR_SAMPLE_H_
#define AQUA_SAMPLE_RESERVOIR_SAMPLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "random/random.h"
#include "sample/synopsis.h"
#include "sample/update_cost.h"

namespace aqua {

/// Reservoir sampling algorithm variants [Vit85].
enum class ReservoirAlgorithm {
  /// Algorithm R: one uniform draw per stream record.
  kR,
  /// Algorithm X: geometric-style skip counting via sequential search; one
  /// uniform draw per *replacement*, not per record.  This is the variant
  /// the paper's "traditional" baseline uses and whose draw counts underlie
  /// Tables 1–2.
  kX,
  /// Algorithm L (Li 1994): skip counting in O(1) draws per replacement via
  /// inversion.  Post-dates the paper; serves the same role as Vitter's
  /// Algorithm Z (fewer draws for huge streams) with a simpler derivation.
  kL,
};

/// A traditional uniform random sample of fixed sample-size m maintained
/// under insertions with reservoir sampling [Vit85].
///
/// For a traditional sample the sample-size equals the footprint (§1.1): m
/// sample points occupy m words.  This is the baseline that concise and
/// counting samples are measured against.
class ReservoirSample final : public Synopsis {
 public:
  /// `capacity` = m ≥ 1 sample points; `seed` makes the stream reproducible.
  ReservoirSample(std::int64_t capacity, std::uint64_t seed,
                  ReservoirAlgorithm algorithm = ReservoirAlgorithm::kX);

  /// Rebuilds a sample from persisted state (the persist codec's entry
  /// point).  `points` must hold exactly min(observed, capacity) values —
  /// the invariant a live reservoir maintains; anything else is corrupt
  /// input and fails with InvalidArgument rather than aborting.  The
  /// restored sample draws from a fresh stream derived from `seed` with the
  /// skip state re-primed for the restored stream position.
  static Result<ReservoirSample> Restore(std::int64_t capacity,
                                         std::uint64_t seed,
                                         ReservoirAlgorithm algorithm,
                                         std::int64_t observed,
                                         std::vector<Value> points);

  std::string_view Name() const override { return "traditional-sample"; }

  void Insert(Value value) override;

  /// Observes a whole batch of stream records.  For Algorithms X/L the
  /// pending skip counter jumps over passed-over records in O(1)
  /// (cost O(#replacements + 1) per batch); Algorithm R still draws per
  /// record.  Draw-for-draw equivalent to per-element Insert().
  void InsertBatch(std::span<const Value> values);

  /// Merges `other` — a reservoir sample of a *disjoint* substream — into
  /// this sample, producing a uniform m-subset of the concatenated stream:
  /// the number of points kept from this side is drawn exactly
  /// hypergeometric (the count a single reservoir over the union would
  /// have), then uniform subsets of both reservoirs are unioned and the
  /// skip state is re-primed for the combined stream length.  Fails on
  /// self-merge, or if `other` holds fewer points than the union sample
  /// could need from it (its capacity is smaller than this one's).
  Status MergeFrom(const ReservoirSample& other);

  /// Hands over the reservoir of everything observed since the last drain
  /// and restarts this one empty, on the same random stream: it then
  /// samples the arrivals after the drain as a fresh reservoir would, and
  /// ShardedSynopsis::DrainInto merges the returned reservoir into the
  /// epoch.  O(1) apart from re-reserving the point slots.  The returned
  /// reservoir shares this one's random state, so it is for MergeFrom into
  /// another reservoir, not for further inserts.
  ReservoirSample Drain();

  /// Footprint = capacity in words (one word per sample point slot).  The
  /// paper charges the traditional baseline its full prespecified footprint.
  Words Footprint() const override { return capacity_; }

  const UpdateCost& Cost() const override { return cost_; }

  std::int64_t ObservedInserts() const override { return observed_; }

  /// Number of sample points currently held (= min(n, m)).
  std::int64_t SampleSize() const {
    return static_cast<std::int64_t>(points_.size());
  }

  std::int64_t Capacity() const { return capacity_; }

  /// The sample points, in reservoir order (not sorted).
  const std::vector<Value>& Points() const { return points_; }

  ReservoirAlgorithm algorithm() const { return algorithm_; }

 private:
  void InsertAlgorithmR(Value value);
  void InsertWithSkips(Value value);
  /// Replaces a uniformly random slot with `value` and draws the next skip.
  void Replace(Value value);
  void ComputeSkipX();
  void ComputeSkipL();
  /// Re-derives the skip state (and Algorithm L's w_) from scratch for the
  /// current observed_/capacity_ — used after a merge rewrites history.
  void PrimeSkipAfterMerge();

  std::int64_t capacity_;
  ReservoirAlgorithm algorithm_;
  Random random_;
  std::vector<Value> points_;
  std::int64_t observed_ = 0;
  // Records to pass over before the next replacement (Algorithms X/L).
  std::int64_t skip_ = 0;
  // Algorithm L state: running max-order-statistic surrogate.
  double w_ = 0.0;
  UpdateCost cost_;
};

}  // namespace aqua

#endif  // AQUA_SAMPLE_RESERVOIR_SAMPLE_H_
