// Statistical properties of synopsis merging (Theorem-2 threshold-aligned
// subsampling for concise samples; hypergeometric union for reservoirs):
// a sharded-then-merged sample, and an epoch that shards are drained into
// again and again, must be indistinguishable from a sample built by one
// synopsis over the whole stream.
//
// Tolerance policy: each chi-square / z-score / hypergeometric check runs
// once per base seed in kSweepSeeds (data stream and per-shard seeds
// derived from the base seed) with per-seed bands at 4-6 sigma (chi2
// ceiling 2x df), and the sweep tolerates kAllowedSeedFailures bad seeds.
// See tests/property/seed_sweep.h.  Merge bookkeeping (ObservedInserts,
// footprint bounds, Validate(), post-merge ingest) stays hard-asserted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "concurrency/sharded_synopsis.h"
#include "core/concise_sample.h"
#include "core/threshold_policy.h"
#include "property/seed_sweep.h"
#include "random/random.h"
#include "sample/reservoir_sample.h"
#include "workload/generators.h"

namespace aqua {
namespace {

/// Round-robin split of `data` into `shards` substreams — the same
/// interleaving ShardedSynopsis applies at ingest time.
std::vector<std::vector<Value>> RoundRobinSplit(const std::vector<Value>& data,
                                                std::size_t shards) {
  std::vector<std::vector<Value>> out(shards);
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i % shards].push_back(data[i]);
  }
  return out;
}

/// Builds per-shard concise samples with heterogeneous footprint bounds
/// (so the shards settle at different thresholds and the merge exercises
/// the subsampling alignment), merges them, and validates every step.
ConciseSample BuildMerged(const std::vector<Value>& data,
                          const std::vector<Words>& bounds,
                          std::uint64_t seed) {
  const auto substreams = RoundRobinSplit(data, bounds.size());
  std::vector<ConciseSample> shards;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    ConciseSampleOptions o;
    o.footprint_bound = bounds[i];
    o.seed = seed + 104729ULL * (i + 1);
    shards.emplace_back(o);
    shards.back().InsertBatch(substreams[i]);
  }
  ConciseSample merged = shards[0];
  for (std::size_t i = 1; i < shards.size(); ++i) {
    EXPECT_TRUE(merged.MergeFrom(shards[i]).ok());
    EXPECT_TRUE(merged.Validate().ok()) << "after merging shard " << i;
  }
  return merged;
}

/// Chi-square goodness of fit of sampled per-value mass `observed` against
/// the data's composition `freq` (n values in all).  Under Theorem 2 each
/// value's sampled count is Binomial(f_v, 1/τ), so expected sampled mass is
/// proportional to f_v.
bool MatchesComposition(const std::vector<double>& freq,
                        const std::vector<double>& observed, double n) {
  double total_points = 0.0;
  for (double o : observed) total_points += o;
  if (total_points <= 0.0) return false;

  // Pool cells with expected count >= 5 (the usual chi-square validity
  // floor); everything rarer goes into one tail cell.
  double chi2 = 0.0, tail_obs = 0.0, tail_exp = 0.0;
  int df = 0;
  for (std::size_t v = 1; v < freq.size(); ++v) {
    const double expected = total_points * freq[v] / n;
    if (expected >= 5.0) {
      const double d = observed[v] - expected;
      chi2 += d * d / expected;
      ++df;
    } else {
      tail_obs += observed[v];
      tail_exp += expected;
    }
  }
  if (tail_exp >= 5.0) {
    const double d = tail_obs - tail_exp;
    chi2 += d * d / tail_exp;
    ++df;
  }
  if (df <= 20) return false;  // the pooling must leave a usable test
  // E[chi2] = df - 1, sd = sqrt(2 df).  2x df is many sigmas out — this
  // only fails if the sample is biased, not from run-to-run noise.
  return chi2 < 2.0 * df;
}

TEST(MergeUniformityProperty, ShardedMergeMatchesDataComposition) {
  // Chi-square goodness of fit: aggregate the merged sample's per-value
  // counts over many independent trials and compare against the data's own
  // composition.
  RunSeedSweep([](std::uint64_t base) {
    const std::int64_t kDomain = 250;
    const std::vector<Value> data = ZipfValues(45000, kDomain, 0.8, base);
    std::vector<double> freq(static_cast<std::size_t>(kDomain) + 1, 0.0);
    for (Value v : data) freq[static_cast<std::size_t>(v)] += 1.0;

    // Heterogeneous bounds: shard thresholds differ, so the merge must
    // subsample the union down to the common (highest) threshold.
    const std::vector<Words> kBounds = {512, 256, 128};
    constexpr int kTrials = 15;
    std::vector<double> observed(static_cast<std::size_t>(kDomain) + 1, 0.0);
    for (int t = 0; t < kTrials; ++t) {
      const ConciseSample merged = BuildMerged(
          data, kBounds, base + 15485863ULL * (static_cast<std::uint64_t>(t) + 1));
      // Structural: merge bookkeeping is exact on every seed.
      EXPECT_EQ(merged.ObservedInserts(),
                static_cast<std::int64_t>(data.size()));
      EXPECT_LE(merged.Footprint(), kBounds[0]);
      for (const ValueCount& e : merged.Entries()) {
        observed[static_cast<std::size_t>(e.value)] +=
            static_cast<double>(e.count);
      }
    }
    return MatchesComposition(freq, observed, static_cast<double>(data.size()));
  });
}

TEST(MergeUniformityProperty, MergedSampleSizeTracksThreshold) {
  // Conditioned on the merged threshold τ', the merged sample size is
  // Binomial(n, 1/τ'): each of the n stream elements survives its shard's
  // selection and the merge-time subsampling with total probability 1/τ'.
  RunSeedSweep([](std::uint64_t base) {
    const std::vector<Value> data = ZipfValues(60000, 20000, 0.3, base);
    constexpr int kTrials = 10;
    double z_sum = 0.0;
    for (int t = 0; t < kTrials; ++t) {
      const ConciseSample merged = BuildMerged(
          data, {400, 300, 200, 100},
          base + 32452843ULL * (static_cast<std::uint64_t>(t) + 1));
      const auto n = static_cast<double>(data.size());
      const double p = 1.0 / merged.Threshold();
      const double expect = n * p;
      const double sd = std::sqrt(n * p * (1.0 - p));
      const double z =
          (static_cast<double>(merged.SampleSize()) - expect) / sd;
      if (std::abs(z) >= 6.0) return false;
      z_sum += z;
    }
    // The per-trial z-scores must also not be systematically biased
    // (mean of kTrials unit normals has sd ~0.32; 1.5 is ~4.7 sigma).
    return std::abs(z_sum / kTrials) < 1.5;
  });
}

TEST(MergeUniformityProperty, SelfAndUndersizedMergesAreRejected) {
  ConciseSampleOptions o;
  o.footprint_bound = 64;
  o.seed = 99;
  ConciseSample s(o);
  EXPECT_FALSE(s.MergeFrom(s).ok());

  ReservoirSample r(100, 99);
  EXPECT_FALSE(r.MergeFrom(r).ok());
}

TEST(MergeUniformityProperty, ReservoirMergeDrawsProportionally) {
  // Merging reservoirs over substreams A (n_a elements) and B (n_b) must
  // behave like one reservoir over the concatenated stream: the number of
  // merged points originating from A is Hypergeometric(n, n_a, m) with
  // mean m * n_a / n.  Tag the substreams by disjoint value ranges.
  constexpr std::int64_t kNa = 30000;
  constexpr std::int64_t kNb = 10000;
  constexpr std::size_t kCap = 200;
  constexpr Value kOffset = 1000000;
  for (ReservoirAlgorithm algo :
       {ReservoirAlgorithm::kR, ReservoirAlgorithm::kX,
        ReservoirAlgorithm::kL}) {
    RunSeedSweep([algo](std::uint64_t base) {
      constexpr int kTrials = 50;
      double mean_from_a = 0.0;
      for (int t = 0; t < kTrials; ++t) {
        const std::uint64_t seed =
            base + 104729ULL * (static_cast<std::uint64_t>(t) + 1);
        ReservoirSample a(kCap, seed, algo);
        a.InsertBatch(UniformValues(kNa, 1000, seed + 1));
        ReservoirSample b(kCap, seed + 2, algo);
        std::vector<Value> b_data = UniformValues(kNb, 1000, seed + 3);
        for (Value& v : b_data) v += kOffset;
        b.InsertBatch(b_data);

        // Structural: merge bookkeeping and post-merge ingest are exact.
        EXPECT_TRUE(a.MergeFrom(b).ok());
        EXPECT_EQ(a.ObservedInserts(), kNa + kNb);
        EXPECT_EQ(a.SampleSize(), static_cast<std::int64_t>(kCap));
        int from_a = 0;
        for (Value v : a.Points()) from_a += (v < kOffset);
        mean_from_a += from_a;

        // The merged reservoir must keep ingesting as if it had seen the
        // concatenated stream all along.
        for (Value v : UniformValues(5000, 1000, seed + 4)) a.Insert(v);
        EXPECT_EQ(a.ObservedInserts(), kNa + kNb + 5000);
        EXPECT_EQ(a.SampleSize(), static_cast<std::int64_t>(kCap));
      }
      mean_from_a /= kTrials;
      const double n = static_cast<double>(kNa + kNb);
      const double expect = kCap * (kNa / n);
      // Hypergeometric sd per trial ~6.1; the mean of kTrials draws has
      // sd ~0.87 — a 5-sigma band.
      const double per_trial_var = kCap * (kNa / n) * (kNb / n) *
                                   ((n - kCap) / (n - 1.0));
      const double band = 5.0 * std::sqrt(per_trial_var / kTrials);
      return std::abs(mean_from_a - expect) <= band;
    });
  }
}

/// The epoch's threshold policy in the drain tests: the paper's ×1.1
/// raise, plus a record of whether a raise came while some shard still
/// held undrained points — a raise part-way through DrainInto's shard
/// loop.  Reading the shards from inside a merge also checks that the
/// merge runs with no shard lock held.
class PartWayRaiseProbe final : public ThresholdPolicy {
 public:
  explicit PartWayRaiseProbe(const ShardedSynopsis<ConciseSample>* sharded)
      : sharded_(sharded) {}
  std::string_view Name() const override { return "part-way-raise-probe"; }
  double NextThreshold(const ThresholdRaiseContext& context) override {
    if (sharded_->ObservedInserts() > 0) part_way = true;
    return raise_.NextThreshold(context);
  }
  bool part_way = false;

 private:
  const ShardedSynopsis<ConciseSample>* sharded_;
  MultiplicativeThresholdPolicy raise_;
};

TEST(MergeUniformityProperty, DrainedEpochsMatchDataComposition) {
  // One epoch, drained into again and again as a 4-shard ShardedSynopsis
  // ingests the stream in batches, must be a uniform sample of the whole
  // stream (Theorem 2: each drained point was kept with probability
  // 1/τ_shard, and the merge keeps it with τ_shard/τ_epoch).  The second
  // half of the Zipf stream reverses the ranks, so a drain that weighs
  // recent points differently from old ones shifts mass between the two
  // halves' heavy values.  The shards overflow their small bounds before
  // the first drain, so that drain merges a shard whose τ exceeds the
  // epoch's; once the epoch is full, merging one shard overflows it and
  // raises τ while later shards still wait in the loop.  Both are
  // required of every trial.
  RunSeedSweep([](std::uint64_t base) {
    const std::int64_t kDomain = 250;
    std::vector<Value> data = ZipfValues(45000, kDomain, 0.8, base);
    for (std::size_t i = data.size() / 2; i < data.size(); ++i) {
      data[i] = kDomain + 1 - data[i];
    }
    std::vector<double> freq(static_cast<std::size_t>(kDomain) + 1, 0.0);
    for (Value v : data) freq[static_cast<std::size_t>(v)] += 1.0;

    const std::vector<Words> kShardBounds = {512, 256, 128, 256};
    constexpr Words kEpochBound = 256;
    constexpr std::size_t kBatch = 500;
    constexpr std::size_t kFirstDrainBatch = 8;
    constexpr int kTrials = 15;
    std::vector<double> observed(static_cast<std::size_t>(kDomain) + 1, 0.0);
    for (int t = 0; t < kTrials; ++t) {
      const std::uint64_t seed =
          base + 15485863ULL * (static_cast<std::uint64_t>(t) + 1);
      ShardedSynopsis<ConciseSample> sharded(
          kShardBounds.size(), [&](std::size_t i) {
            ConciseSampleOptions o;
            o.footprint_bound = kShardBounds[i];
            o.seed = seed + 104729ULL * (i + 1);
            return ConciseSample(o);
          });
      auto probe = std::make_shared<PartWayRaiseProbe>(&sharded);
      ConciseSample epoch(ConciseSampleOptions{
          .footprint_bound = kEpochBound, .seed = seed, .policy = probe});
      Random coin(seed ^ 0xD7A1);
      bool shard_above_epoch = false;
      const std::span<const Value> all(data);
      for (std::size_t b = 0; b * kBatch < all.size(); ++b) {
        const std::size_t end = std::min(all.size(), (b + 1) * kBatch);
        sharded.InsertBatch(all.subspan(b * kBatch, end - b * kBatch));
        const bool last = end == all.size();
        if (!last && (b < kFirstDrainBatch || !coin.Bernoulli(0.3))) continue;
        for (std::size_t i = 0; i < sharded.num_shards(); ++i) {
          shard_above_epoch |=
              sharded.WithShard(i, [](const ConciseSample& s) {
                return s.Threshold();
              }) > epoch.Threshold();
        }
        // Structural: every drained insert is accounted for exactly once.
        EXPECT_TRUE(sharded.DrainInto(epoch).ok());
        EXPECT_EQ(epoch.ObservedInserts(), static_cast<std::int64_t>(end));
        EXPECT_TRUE(epoch.Validate().ok()) << "after the drain at " << end;
        if (::testing::Test::HasFailure()) return false;
      }
      EXPECT_TRUE(shard_above_epoch) << "no drain merged a shard above τ";
      EXPECT_TRUE(probe->part_way) << "no raise part-way through a drain";
      if (::testing::Test::HasFailure()) return false;
      for (const ValueCount& e : epoch.Entries()) {
        observed[static_cast<std::size_t>(e.value)] +=
            static_cast<double>(e.count);
      }
    }
    return MatchesComposition(freq, observed, static_cast<double>(data.size()));
  });
}

TEST(MergeUniformityProperty, DrainedReservoirDrawsProportionally) {
  // A reservoir epoch drained from 4 shards at seeded points must hold a
  // uniform m-subset of the whole stream: with the first n_a values tagged
  // A and the rest B, the number of A points is Hypergeometric(n, n_a, m).
  // This is what catches a drain that over- or under-weights old points
  // against new ones.
  constexpr std::int64_t kNa = 30000;
  constexpr std::int64_t kNb = 10000;
  constexpr std::size_t kCap = 200;
  constexpr Value kOffset = 1000000;
  constexpr std::size_t kBatch = 400;
  for (ReservoirAlgorithm algo :
       {ReservoirAlgorithm::kR, ReservoirAlgorithm::kX,
        ReservoirAlgorithm::kL}) {
    RunSeedSweep([algo](std::uint64_t base) {
      constexpr int kTrials = 50;
      double mean_from_a = 0.0;
      for (int t = 0; t < kTrials; ++t) {
        const std::uint64_t seed =
            base + 104729ULL * (static_cast<std::uint64_t>(t) + 1);
        std::vector<Value> data = UniformValues(kNa, 1000, seed + 1);
        for (Value v : UniformValues(kNb, 1000, seed + 3)) {
          data.push_back(v + kOffset);
        }
        ShardedSynopsis<ReservoirSample> sharded(4, [&](std::size_t i) {
          return ReservoirSample(kCap, seed + 7 * (i + 1), algo);
        });
        ReservoirSample epoch(kCap, seed, algo);
        Random coin(seed ^ 0xD7A1);
        const std::span<const Value> all(data);
        for (std::size_t b = 0; b * kBatch < all.size(); ++b) {
          const std::size_t end = std::min(all.size(), (b + 1) * kBatch);
          sharded.InsertBatch(all.subspan(b * kBatch, end - b * kBatch));
          if (end != all.size() && !coin.Bernoulli(0.3)) continue;
          // Structural: drain bookkeeping is exact.
          EXPECT_TRUE(sharded.DrainInto(epoch).ok());
          const auto prefix = static_cast<std::int64_t>(end);
          EXPECT_EQ(epoch.ObservedInserts(), prefix);
          EXPECT_EQ(epoch.SampleSize(), std::min<std::int64_t>(kCap, prefix));
          if (::testing::Test::HasFailure()) return false;
        }
        int from_a = 0;
        for (Value v : epoch.Points()) from_a += (v < kOffset);
        mean_from_a += from_a;
      }
      mean_from_a /= kTrials;
      const double n = static_cast<double>(kNa + kNb);
      const double expect = kCap * (kNa / n);
      // Same 5-sigma band on the mean of kTrials hypergeometric draws as
      // ReservoirMergeDrawsProportionally.
      const double per_trial_var = kCap * (kNa / n) * (kNb / n) *
                                   ((n - kCap) / (n - 1.0));
      const double band = 5.0 * std::sqrt(per_trial_var / kTrials);
      return std::abs(mean_from_a - expect) <= band;
    });
  }
}

}  // namespace
}  // namespace aqua
