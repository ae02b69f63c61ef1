#ifndef AQUA_CONCURRENCY_SNAPSHOT_CACHE_H_
#define AQUA_CONCURRENCY_SNAPSHOT_CACHE_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>

#include "common/result.h"
#include "common/status.h"

namespace aqua {

/// Observability counters for one SnapshotCache (non-template so callers
/// can aggregate stats across caches of different synopsis types).
struct SnapshotCacheStats {
  /// Get() calls answered from the current epoch without refreshing.
  std::int64_t hits = 0;
  /// Snapshot rebuilds (inline or via Refresh()).
  std::int64_t refreshes = 0;
  /// Get() calls that observed staleness but served the previous epoch
  /// because another thread was already refreshing (or, in external
  /// refresh mode, because Get() never refreshes a warmed cache).
  std::int64_t stale_served = 0;
  /// Rebuilds triggered inline by a query thread's Get().
  std::int64_t inline_refreshes = 0;
  /// Rebuilds triggered by an explicit Refresh() call (maintenance
  /// threads, the epoch pump).
  std::int64_t external_refreshes = 0;
  /// Rebuild attempts whose refresher returned an error.  A failure with
  /// a previous epoch in place is survivable (the old epoch keeps
  /// serving) but was previously invisible; it now counts here and emits
  /// a rate-limited log line.
  std::int64_t refresh_failures = 0;
  /// Refresh (build + publish) latency percentiles over the most recent
  /// successful rebuilds (a fixed-size ring); 0 before the first refresh.
  std::int64_t refresh_ns_p50 = 0;
  std::int64_t refresh_ns_p99 = 0;
};

/// Epoch-cached synopsis snapshots for the query path.
///
/// The ingest structures cannot be read in place by queries: a
/// SharedSynopsis must be copied under its lock, and a ShardedSynopsis has
/// to be drained and merged.  SnapshotCache decouples ingest from queries:
/// a *refresher* builds the next snapshot only when the cached one is
/// older than a staleness bound (TypedSynopsisHandle's sharded refresher
/// copies the previous epoch and drains the shards into the copy), and
/// query threads read the current epoch's `shared_ptr<const S>` — a pointer
/// load instead of a merge.  This is the standard bounded-staleness trade
/// AQP serving systems make: answers are already approximate, so serving a
/// snapshot that trails the ingest frontier by a bounded number of
/// operations (or a bounded wall interval) costs accuracy that is
/// second-order next to the sampling error itself.
///
/// Epoch swap, double-buffered: the refresher builds the next snapshot off
/// to the side while the current epoch keeps serving; the new epoch is then
/// published with one pointer swap under a dedicated pointer mutex held for
/// a few instructions (never across the merge — libstdc++'s
/// atomic<shared_ptr> would do the same internally, via a spinlock
/// ThreadSanitizer cannot model).  Readers that obtained the old epoch keep
/// it alive through their shared_ptr — no reader ever waits on a refresh,
/// and no refresh ever mutates a snapshot a reader can see.
///
/// Staleness is measured two ways, whichever trips first:
///  - ops-observed: the ingest path reports progress via OnOps(n); once
///    `max_stale_ops` operations accumulate since the last refresh, the
///    next Get() re-merges.
///  - wall-interval: once `max_stale_interval` elapses since the last
///    refresh, the next Get() re-merges (covers idle-ingest streams where
///    a trickle of ops would otherwise never trip the ops bound).
///
/// Refresh happens *inline in at most one query thread at a time*: the
/// first Get() to observe staleness takes the refresh mutex and re-merges;
/// concurrent Get() calls that lose the try_lock race serve the previous
/// epoch instead of convoying behind the merge.  Ingest threads never
/// refresh (OnOps is one relaxed fetch_add).  Callers wanting refresh
/// entirely off the query path can run a maintenance thread that calls
/// Refresh() on a timer; Get() then almost always hits.
template <typename S>
class SnapshotCache {
 public:
  /// Builds the next epoch's snapshot from the live synopsis, e.g. a copy
  /// of Peek()'s snapshot with ShardedSynopsis::DrainInto applied.
  using Refresher = std::function<Result<S>()>;

  struct Options {
    /// Refresh after this many OnOps-reported operations (<= 0: never
    /// triggered by ops).
    std::int64_t max_stale_ops = 8192;
    /// Refresh after this much wall time (<= zero: never triggered by
    /// time).
    std::chrono::nanoseconds max_stale_interval =
        std::chrono::milliseconds(100);
    /// When true, refresh is owned by an external maintenance thread (the
    /// epoch pump): a stale Get() on a warmed cache serves the current
    /// epoch unconditionally — a pointer copy, never a re-merge — and only
    /// Refresh() rebuilds.  The first Get() with no snapshot at all still
    /// builds inline (bootstrap), so cold callers never observe null.
    bool external_refresh = false;
  };

  using CacheStats = SnapshotCacheStats;

  SnapshotCache(Refresher refresher, const Options& options)
      : refresher_(std::move(refresher)), options_(options) {}

  SnapshotCache(const SnapshotCache&) = delete;
  SnapshotCache& operator=(const SnapshotCache&) = delete;

  /// Ingest-side progress report; one relaxed fetch_add, never refreshes.
  void OnOps(std::int64_t n) {
    ops_since_refresh_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Returns the current epoch's snapshot, refreshing first if the
  /// staleness bound is exceeded (or no snapshot exists yet).  Only the
  /// winning thread refreshes; losers serve the previous epoch.  Fails
  /// only if a needed refresh fails and no previous epoch exists.
  Result<std::shared_ptr<const S>> Get() const {
    // At most one clock read per Get(): the ops bound is checked first
    // (no clock needed when it trips), and the wall reading taken for the
    // first interval check is reused by the under-lock recheck.  Reuse is
    // conservative: a stale reading only shrinks the apparent interval, so
    // it can skip a refresh another thread just performed, never miss one.
    std::int64_t now = kClockUnread;
    std::shared_ptr<const S> current = LoadCurrent();
    if (current != nullptr && !IsStaleAt(&now)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return current;
    }
    if (current == nullptr) {
      // First snapshot: every caller must block until one exists (even in
      // external refresh mode — serving null is worse than one inline
      // bootstrap build).
      std::lock_guard<std::mutex> lock(refresh_mutex_);
      current = LoadCurrent();
      if (current == nullptr || IsStaleAt(&now)) {
        AQUA_RETURN_NOT_OK(RefreshLocked(/*external=*/false));
      }
    } else if (options_.external_refresh) {
      // Refresh belongs to the pump; a stale warmed Get() is a pointer
      // copy of the current epoch, nothing more.
      stale_served_.fetch_add(1, std::memory_order_relaxed);
      return current;
    } else if (refresh_mutex_.try_lock()) {
      std::lock_guard<std::mutex> lock(refresh_mutex_, std::adopt_lock);
      if (IsStaleAt(&now)) {
        const Status status = RefreshLocked(/*external=*/false);
        // A failed re-merge is not fatal while a previous epoch exists:
        // serve it (still within one failed refresh of the bound).  The
        // failure is surfaced via refresh_failures and the rate-limited
        // log inside RefreshLocked.
        if (!status.ok() && LoadCurrent() == nullptr) {
          return status;
        }
      }
    } else {
      stale_served_.fetch_add(1, std::memory_order_relaxed);
    }
    return LoadCurrent();
  }

  /// Forces a rebuild and epoch swap regardless of staleness (maintenance
  /// threads, the epoch pump, tests).
  Status Refresh() const {
    std::lock_guard<std::mutex> lock(refresh_mutex_);
    return RefreshLocked(/*external=*/true);
  }

  /// Current epoch's snapshot without any refresh; null before the first
  /// successful Get()/Refresh().
  std::shared_ptr<const S> Peek() const { return LoadCurrent(); }

  /// Number of epoch swaps so far (0 before the first refresh).
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// True when the next Get() would attempt a refresh.
  bool IsStale() const {
    std::int64_t now = kClockUnread;
    return IsStaleAt(&now);
  }

  CacheStats Stats() const {
    CacheStats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.refreshes = refreshes_.load(std::memory_order_relaxed);
    stats.stale_served = stale_served_.load(std::memory_order_relaxed);
    stats.inline_refreshes =
        inline_refreshes_.load(std::memory_order_relaxed);
    stats.external_refreshes =
        external_refreshes_.load(std::memory_order_relaxed);
    stats.refresh_failures =
        refresh_failures_.load(std::memory_order_relaxed);
    // Percentiles over the ring's recorded samples; stack-only (the stats
    // path must not allocate).
    const std::uint64_t recorded =
        refresh_ns_count_.load(std::memory_order_relaxed);
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(recorded, kRefreshRingSize));
    if (n > 0) {
      std::array<std::int64_t, kRefreshRingSize> sorted;
      for (std::size_t i = 0; i < n; ++i) {
        sorted[i] = refresh_ns_ring_[i].load(std::memory_order_relaxed);
      }
      const std::size_t p50 = (n - 1) / 2;
      const std::size_t p99 = std::min(n - 1, (n * 99) / 100);
      std::nth_element(sorted.begin(), sorted.begin() + p50,
                       sorted.begin() + n);
      stats.refresh_ns_p50 = sorted[p50];
      std::nth_element(sorted.begin(), sorted.begin() + p99,
                       sorted.begin() + n);
      stats.refresh_ns_p99 = sorted[p99];
    }
    return stats;
  }

 private:
  /// Sentinel for "no wall reading taken yet" in IsStaleAt's lazy-clock
  /// protocol (the steady clock never reads as this value).
  static constexpr std::int64_t kClockUnread = -1;

  /// IsStale with a caller-scoped clock cache: the ops bound is checked
  /// first and short-circuits without touching the clock; the interval
  /// bound reads NowNs() only once per *now — repeated calls within one
  /// Get() reuse the first reading.
  bool IsStaleAt(std::int64_t* now) const {
    if (options_.max_stale_ops > 0 &&
        ops_since_refresh_.load(std::memory_order_relaxed) >=
            options_.max_stale_ops) {
      return true;
    }
    if (options_.max_stale_interval > std::chrono::nanoseconds::zero()) {
      const std::int64_t last =
          last_refresh_ns_.load(std::memory_order_relaxed);
      if (*now == kClockUnread) *now = NowNs();
      if (*now - last >= options_.max_stale_interval.count()) return true;
    }
    return false;
  }

  static std::int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::shared_ptr<const S> LoadCurrent() const {
    std::lock_guard<std::mutex> lock(ptr_mutex_);
    return current_;
  }

  /// Builds the next epoch off to the side, then publishes it with one
  /// pointer swap.  Caller holds refresh_mutex_; ptr_mutex_ is taken only
  /// around the swap itself, never across the merge.
  Status RefreshLocked(bool external) const {
    // Sampled *before* the merge: ops that land while the merge runs stay
    // in the counter and count toward the next staleness window.
    const std::int64_t ops_before =
        ops_since_refresh_.load(std::memory_order_relaxed);
    const std::int64_t build_start = NowNs();
    Result<S> merged = refresher_();
    if (!merged.ok()) {
      RecordRefreshFailure(merged.status());
      return merged.status();
    }
    auto next = std::make_shared<const S>(std::move(merged).ValueOrDie());
    {
      std::lock_guard<std::mutex> lock(ptr_mutex_);
      current_.swap(next);
    }
    next.reset();  // old epoch's last owner may be a pinned reader, not us
    const std::int64_t done = NowNs();
    ops_since_refresh_.fetch_sub(ops_before, std::memory_order_relaxed);
    last_refresh_ns_.store(done, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    refreshes_.fetch_add(1, std::memory_order_relaxed);
    if (external) {
      external_refreshes_.fetch_add(1, std::memory_order_relaxed);
    } else {
      inline_refreshes_.fetch_add(1, std::memory_order_relaxed);
    }
    const std::uint64_t slot =
        refresh_ns_count_.fetch_add(1, std::memory_order_relaxed) %
        kRefreshRingSize;
    refresh_ns_ring_[slot].store(done - build_start,
                                 std::memory_order_relaxed);
    return Status::OK();
  }

  /// Counts the failure and logs it at most once per second — a refresher
  /// that fails every window must not flood stderr, but a silent
  /// always-stale cache is a production incident nobody can see.
  void RecordRefreshFailure(const Status& status) const {
    refresh_failures_.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t now = NowNs();
    std::int64_t last = last_failure_log_ns_.load(std::memory_order_relaxed);
    constexpr std::int64_t kLogIntervalNs = 1'000'000'000;
    if (now - last >= kLogIntervalNs &&
        last_failure_log_ns_.compare_exchange_strong(
            last, now, std::memory_order_relaxed)) {
      std::fprintf(stderr, "aqua: snapshot refresh failed: %s\n",
                   status.message().c_str());
    }
  }

  Refresher refresher_;
  Options options_;

  /// Guards only the current_ pointer (copy in, swap out); held for a few
  /// instructions so readers and the publisher never convoy.
  mutable std::mutex ptr_mutex_;
  mutable std::shared_ptr<const S> current_;
  mutable std::mutex refresh_mutex_;
  mutable std::atomic<std::int64_t> ops_since_refresh_{0};
  mutable std::atomic<std::int64_t> last_refresh_ns_{0};
  mutable std::atomic<std::uint64_t> epoch_{0};
  mutable std::atomic<std::int64_t> hits_{0};
  mutable std::atomic<std::int64_t> refreshes_{0};
  mutable std::atomic<std::int64_t> stale_served_{0};
  mutable std::atomic<std::int64_t> inline_refreshes_{0};
  mutable std::atomic<std::int64_t> external_refreshes_{0};
  mutable std::atomic<std::int64_t> refresh_failures_{0};
  mutable std::atomic<std::int64_t> last_failure_log_ns_{0};

  /// Latency ring over the most recent successful refreshes; sized so the
  /// Stats() percentile pass fits on the stack.
  static constexpr std::size_t kRefreshRingSize = 64;
  mutable std::array<std::atomic<std::int64_t>, kRefreshRingSize>
      refresh_ns_ring_{};
  mutable std::atomic<std::uint64_t> refresh_ns_count_{0};
};

}  // namespace aqua

#endif  // AQUA_CONCURRENCY_SNAPSHOT_CACHE_H_
