#ifndef AQUA_CONCURRENCY_SHARDED_SYNOPSIS_H_
#define AQUA_CONCURRENCY_SHARDED_SYNOPSIS_H_

#include <atomic>
#include <concepts>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/types.h"
#include "concurrency/shared_synopsis.h"

namespace aqua {

/// Synopses that can absorb an independently-built synopsis of a disjoint
/// substream while staying statistically valid (Theorem-2 threshold-aligned
/// subsampling for concise samples; hypergeometric union for reservoirs).
template <typename S>
concept Mergeable = requires(S s, const S& other) {
  { s.MergeFrom(other) } -> std::same_as<Status>;
};

/// Synopses that can hand over what they took since their last drain:
/// Drain() returns those contents as a synopsis of their own and leaves
/// this one empty, at its own threshold and on its own random stream, so
/// it keeps sampling later arrivals exactly as if nothing had been taken.
template <typename S>
concept Drainable = requires(S s) {
  { s.Drain() } -> std::same_as<S>;
};

/// Scale-out ingestion for any mergeable synopsis (§6: "issues of
/// concurrency bottlenecks need to be addressed").
///
/// SharedSynopsis serializes all producers through one mutex; under heavy
/// multi-producer load that lock is the bottleneck no matter how cheap the
/// per-element work is.  ShardedSynopsis instead spreads the stream
/// round-robin over N independently-locked shards, each a synopsis of the
/// disjoint substream it observes.  The query path never reads the shards
/// in place: DrainInto() empties them into a long-lived target (the
/// previous epoch, in TypedSynopsisHandle), and MergeFrom keeps that target
/// a uniform sample of everything drained so far — Theorem 2's thinning
/// argument: Bernoulli(1/τ_i) thinned by τ_i/τ' is Bernoulli(1/τ').  A
/// shard therefore holds only what arrived since the last drain.
///
/// Round-robin routing is insert-only.  A value's occurrences spread over
/// the shards and, once drained, into the target, so no shard could apply
/// a delete exactly; synopses that apply deletes run single-instance.
/// Producers should prefer InsertBatch (one lock acquisition and one
/// skip-counted scan per batch) or a per-producer ShardedBatchInserter.
template <typename S>
class ShardedSynopsis {
 public:
  /// Builds `num_shards >= 1` shards; `make_shard(i)` must return the
  /// synopsis for shard i, seeded independently per shard (the shards'
  /// random streams must not be correlated or the merged sample is not
  /// uniform).
  template <typename Factory>
  ShardedSynopsis(std::size_t num_shards, Factory&& make_shard) {
    AQUA_CHECK_GE(num_shards, std::size_t{1});
    shards_.reserve(num_shards);
    for (std::size_t i = 0; i < num_shards; ++i) {
      shards_.push_back(std::make_unique<Shard>(make_shard(i)));
    }
  }

  ShardedSynopsis(const ShardedSynopsis&) = delete;
  ShardedSynopsis& operator=(const ShardedSynopsis&) = delete;

  std::size_t num_shards() const { return shards_.size(); }

  /// Next shard in round-robin order (one atomic increment; no lock).
  std::size_t NextShard() {
    return ticket_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  }

  void Insert(Value value) {
    Shard& shard = *shards_[NextShard()];
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.synopsis.Insert(value);
  }

  /// Sends the whole batch to the next shard under one lock acquisition,
  /// through the synopsis-level batch fast path when available.
  void InsertBatch(std::span<const Value> values) {
    if (values.empty()) return;
    InsertBatchToShard(NextShard(), values);
  }

  /// Targets a specific shard (producers pinning shards for locality).
  void InsertBatchToShard(std::size_t index, std::span<const Value> values) {
    Shard& shard = *shards_[index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    if constexpr (BatchInsertable<S>) {
      shard.synopsis.InsertBatch(values);
    } else {
      for (Value v : values) shard.synopsis.Insert(v);
    }
  }

  /// Total words across all shards (locks each shard briefly).
  Words Footprint() const
    requires requires(const S s) {
      { s.Footprint() } -> std::convertible_to<Words>;
    }
  {
    Words total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total += shard->synopsis.Footprint();
    }
    return total;
  }

  /// Inserts the shards observed since the last drain (locks each shard
  /// briefly).
  std::int64_t ObservedInserts() const {
    std::int64_t total = 0;
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      total += shard->synopsis.ObservedInserts();
    }
    return total;
  }

  /// Moves everything the shards took since the last drain into `target`.
  /// One shard at a time: its contents are swapped out under its lock
  /// (S::Drain(), which leaves the shard empty at its own threshold), and
  /// the MergeFrom into `target` then runs with no shard lock held, so a
  /// producer never waits on a merge.  Shards that observed nothing since
  /// the last drain are skipped.
  ///
  /// `target` must summarize a stream disjoint from the shards' (in
  /// practice: the earlier drains) and draw from its own random stream.
  /// Drains must be serialized by the caller (the epoch cache's refresh
  /// mutex does this).  A drain racing ingest takes some prefix of each
  /// shard's substream; the rest stays in the shard for the next drain, so
  /// every insert reaches the target exactly once.  If a merge fails, the
  /// error is returned and that one shard's drained points are lost; the
  /// shards not yet visited keep theirs.
  Status DrainInto(S& target)
    requires Mergeable<S> && Drainable<S>
  {
    for (const auto& shard : shards_) {
      std::optional<S> drained = TakeShard(*shard);
      if (!drained.has_value()) continue;
      AQUA_RETURN_NOT_OK(target.MergeFrom(*drained));
    }
    return Status::OK();
  }

  /// Runs `fn(const S&)` on one shard under its lock (tests, maintenance).
  template <typename Fn>
  auto WithShard(std::size_t index, Fn&& fn) const {
    const Shard& shard = *shards_[index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return fn(static_cast<const S&>(shard.synopsis));
  }

  /// Runs `fn(S&)` on one shard under its lock.  The cluster merge/restore
  /// path folds external state into shard 0 this way: the shards summarize
  /// disjoint substreams, so attributing merged-in ops to one shard keeps
  /// the next drain's merge valid.
  template <typename Fn>
  auto WithShardMutable(std::size_t index, Fn&& fn) {
    Shard& shard = *shards_[index];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return fn(static_cast<S&>(shard.synopsis));
  }

 private:
  // One cache line per shard so neighboring locks don't false-share.
  struct alignas(64) Shard {
    explicit Shard(S s) : synopsis(std::move(s)) {}
    mutable std::mutex mutex;
    S synopsis;
  };

  /// Swaps one shard's contents out under its lock; nullopt when the shard
  /// observed nothing since the last drain.
  static std::optional<S> TakeShard(Shard& shard) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (shard.synopsis.ObservedInserts() == 0) return std::nullopt;
    return shard.synopsis.Drain();
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::size_t> ticket_{0};
};

/// Per-producer insert buffer for a ShardedSynopsis: Add() is lock-free on
/// the producer's own buffer; every `batch_size` elements the buffer drains
/// into the next round-robin shard under one lock acquisition, through the
/// synopsis-level batch fast path.  Destruction (or Flush) drains the tail.
template <typename S>
class ShardedBatchInserter {
 public:
  explicit ShardedBatchInserter(ShardedSynopsis<S>* sharded,
                                std::size_t batch_size = 1024)
      : sharded_(sharded), batch_size_(batch_size) {
    buffer_.reserve(batch_size);
  }

  ~ShardedBatchInserter() { Flush(); }

  ShardedBatchInserter(const ShardedBatchInserter&) = delete;
  ShardedBatchInserter& operator=(const ShardedBatchInserter&) = delete;

  void Add(Value value) {
    buffer_.push_back(value);
    if (buffer_.size() >= batch_size_) Flush();
  }

  void Flush() {
    if (buffer_.empty()) return;
    sharded_->InsertBatch(buffer_);
    buffer_.clear();
  }

 private:
  ShardedSynopsis<S>* sharded_;
  std::size_t batch_size_;
  std::vector<Value> buffer_;
};

}  // namespace aqua

#endif  // AQUA_CONCURRENCY_SHARDED_SYNOPSIS_H_
