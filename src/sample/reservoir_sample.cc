#include "sample/reservoir_sample.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace aqua {

ReservoirSample::ReservoirSample(std::int64_t capacity, std::uint64_t seed,
                                 ReservoirAlgorithm algorithm)
    : capacity_(capacity), algorithm_(algorithm), random_(seed) {
  AQUA_CHECK_GE(capacity, 1);
  points_.reserve(static_cast<std::size_t>(capacity));
}

Result<ReservoirSample> ReservoirSample::Restore(std::int64_t capacity,
                                                 std::uint64_t seed,
                                                 ReservoirAlgorithm algorithm,
                                                 std::int64_t observed,
                                                 std::vector<Value> points) {
  if (capacity < 1) {
    return Status::InvalidArgument("reservoir capacity must be >= 1");
  }
  if (observed < 0) {
    return Status::InvalidArgument("reservoir observed count negative");
  }
  const std::int64_t expected = std::min(observed, capacity);
  if (static_cast<std::int64_t>(points.size()) != expected) {
    return Status::InvalidArgument(
        "reservoir point count does not match min(observed, capacity)");
  }
  ReservoirSample sample(capacity, seed, algorithm);
  sample.points_ = std::move(points);
  sample.observed_ = observed;
  if (sample.SampleSize() == capacity) {
    sample.PrimeSkipAfterMerge();
  } else {
    sample.skip_ = 0;  // still filling; the transition in Insert() primes
  }
  return sample;
}

void ReservoirSample::Insert(Value value) {
  ++observed_;
  if (SampleSize() < capacity_) {
    points_.push_back(value);
    // Transitioning to the steady state: prime the skip counter.
    if (SampleSize() == capacity_ &&
        algorithm_ != ReservoirAlgorithm::kR) {
      if (algorithm_ == ReservoirAlgorithm::kX) {
        ComputeSkipX();
      } else {
        w_ = std::exp(std::log(random_.NextDoublePositive()) /
                      static_cast<double>(capacity_));
        ++cost_.coin_flips;
        ComputeSkipL();
      }
    }
    return;
  }
  if (algorithm_ == ReservoirAlgorithm::kR) {
    InsertAlgorithmR(value);
  } else {
    InsertWithSkips(value);
  }
}

void ReservoirSample::InsertAlgorithmR(Value value) {
  // Record t (1-based) replaces a uniformly random slot with prob m/t.
  const auto slot =
      static_cast<std::int64_t>(random_.UniformU64(
          static_cast<std::uint64_t>(observed_)));
  ++cost_.coin_flips;
  if (slot < capacity_) points_[static_cast<std::size_t>(slot)] = value;
}

void ReservoirSample::InsertWithSkips(Value value) {
  if (skip_ > 0) {
    --skip_;
    return;
  }
  Replace(value);
}

void ReservoirSample::Replace(Value value) {
  const auto slot = static_cast<std::size_t>(
      random_.UniformU64(static_cast<std::uint64_t>(capacity_)));
  ++cost_.coin_flips;
  points_[slot] = value;
  if (algorithm_ == ReservoirAlgorithm::kX) {
    ComputeSkipX();
  } else {
    ComputeSkipL();
    w_ *= std::exp(std::log(random_.NextDoublePositive()) /
                   static_cast<double>(capacity_));
    ++cost_.coin_flips;
  }
}

void ReservoirSample::InsertBatch(std::span<const Value> values) {
  std::size_t i = 0;
  const std::size_t n = values.size();
  // Fill phase (and the fill->steady transition) per element.
  while (i < n && SampleSize() < capacity_) Insert(values[i++]);
  if (algorithm_ == ReservoirAlgorithm::kR) {
    // Algorithm R draws per record; nothing to jump over.
    for (; i < n; ++i) Insert(values[i]);
    return;
  }
  while (i < n) {
    const auto left = static_cast<std::int64_t>(n - i);
    if (skip_ >= left) {
      // No replacement lands in the rest of this batch.
      skip_ -= left;
      observed_ += left;
      return;
    }
    // Jump straight to the next replaced record.  ComputeSkipX reads
    // observed_ as "records processed including this one", so advance it
    // before drawing.
    i += static_cast<std::size_t>(skip_);
    observed_ += skip_ + 1;
    skip_ = 0;
    Replace(values[i]);
    ++i;
  }
}

Status ReservoirSample::MergeFrom(const ReservoirSample& other) {
  if (&other == this) {
    return Status::InvalidArgument(
        "cannot merge a reservoir sample into itself");
  }
  const std::int64_t na = observed_;
  const std::int64_t nb = other.observed_;
  const std::int64_t n = na + nb;
  const std::int64_t m = std::min(capacity_, n);
  if (other.SampleSize() < std::min(m, nb)) {
    return Status::InvalidArgument(
        "other reservoir holds too few points to merge (smaller capacity)");
  }
  // A single reservoir of size m over the concatenated stream would hold
  // K ~ Hypergeometric(n, na, m) points of substream A; and a uniform
  // K-subset of this reservoir (itself a uniform subset of substream A) is
  // a uniform K-subset of substream A.  Draw K by sequential sampling
  // without replacement — O(m) draws, exact.
  std::int64_t k = 0;
  std::int64_t rem_a = na;
  std::int64_t rem_total = n;
  for (std::int64_t i = 0; i < m; ++i) {
    if (static_cast<std::int64_t>(random_.UniformU64(
            static_cast<std::uint64_t>(rem_total))) < rem_a) {
      ++k;
      --rem_a;
    }
    --rem_total;
  }
  // Uniform k-subset of ours + (m-k)-subset of theirs via partial
  // Fisher-Yates.
  std::vector<Value> merged;
  merged.reserve(static_cast<std::size_t>(m));
  auto take = [&](std::vector<Value> pool, std::int64_t want) {
    for (std::int64_t j = 0; j < want; ++j) {
      const auto pick =
          static_cast<std::size_t>(j) +
          static_cast<std::size_t>(random_.UniformU64(
              static_cast<std::uint64_t>(pool.size() - static_cast<std::size_t>(j))));
      std::swap(pool[static_cast<std::size_t>(j)], pool[pick]);
      merged.push_back(pool[static_cast<std::size_t>(j)]);
    }
  };
  take(points_, k);
  take(other.points_, m - k);
  points_ = std::move(merged);
  observed_ = n;
  if (SampleSize() == capacity_) {
    PrimeSkipAfterMerge();
  } else {
    skip_ = 0;  // still filling; the transition in Insert() will prime
  }
  return Status::OK();
}

ReservoirSample ReservoirSample::Drain() {
  ReservoirSample drained = std::move(*this);
  // The move copied the capacity, the algorithm and the random stream and
  // took the points.  Restart as an empty reservoir: its fill phase primes
  // the skip state again, as after construction.
  points_ = std::vector<Value>();
  points_.reserve(static_cast<std::size_t>(capacity_));
  observed_ = 0;
  skip_ = 0;
  w_ = 0.0;
  return drained;
}

void ReservoirSample::PrimeSkipAfterMerge() {
  if (algorithm_ == ReservoirAlgorithm::kR) return;
  if (algorithm_ == ReservoirAlgorithm::kX) {
    // Algorithm X's skip distribution depends only on (t, m); exact.
    ComputeSkipX();
    return;
  }
  // Algorithm L's w_ is the m-th smallest of t uniform keys (the reservoir
  // holds the m smallest keys; a new record replaces when its key < w_).
  // Sample it exactly in m draws via the Renyi representation of descending
  // order statistics applied to the complemented keys:
  //   m-th smallest of t  =  1 - prod_{i=1..m} U_i^{1/(t-i+1)}.
  double prod = 1.0;
  const double t = static_cast<double>(observed_);
  for (std::int64_t i = 1; i <= capacity_; ++i) {
    prod *= std::exp(std::log(random_.NextDoublePositive()) /
                     (t - static_cast<double>(i) + 1.0));
    ++cost_.coin_flips;
  }
  w_ = 1.0 - prod;
  ComputeSkipL();
}

void ReservoirSample::ComputeSkipX() {
  // Algorithm X [Vit85]: with t records processed, the number of records to
  // skip before the next replacement is the smallest g >= 0 with
  //   prod_{i=1}^{g+1} (t + i - m) / (t + i)  <=  V,   V ~ U(0,1).
  // Found by sequential search; costs exactly one uniform draw.
  const double v = random_.NextDoublePositive();
  ++cost_.coin_flips;
  const double t = static_cast<double>(observed_);
  const double m = static_cast<double>(capacity_);
  double quot = (t + 1.0 - m) / (t + 1.0);
  std::int64_t g = 0;
  while (quot > v) {
    ++g;
    quot *= (t + 1.0 + static_cast<double>(g) - m) /
            (t + 1.0 + static_cast<double>(g));
  }
  skip_ = g;
}

void ReservoirSample::ComputeSkipL() {
  // Algorithm L: skip ~ floor(log U / log(1 - w)).
  const double u = random_.NextDoublePositive();
  ++cost_.coin_flips;
  const double denom = std::log1p(-w_);
  if (denom >= 0.0) {  // w_ == 0 can only arise from underflow
    skip_ = 0;
    return;
  }
  const double g = std::floor(std::log(u) / denom);
  skip_ = g < 0 ? 0 : static_cast<std::int64_t>(g);
}

}  // namespace aqua
