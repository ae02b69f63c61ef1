#include "server/response_cache.h"

#include <utility>

namespace aqua {

std::string_view ResponseCache::BuildKey(const HttpRequest& request) {
  key_buf_.clear();
  key_buf_.append(request.method);
  key_buf_.push_back('\n');
  key_buf_.append(request.path);
  key_buf_.push_back('\n');
  request.AppendCanonicalQuery(&key_buf_, &scratch_);
  key_buf_.push_back('\n');
  // The cached wire bytes embed a Connection: header, so a keep-alive and
  // a close request cannot share an entry.
  key_buf_.push_back(request.keep_alive ? 'k' : 'c');
  return key_buf_;
}

bool ResponseCache::BuildKeyWith(
    const HttpRequest& request,
    const std::function<bool(const HttpRequest&, std::string*)>& canonical,
    std::string_view* key) {
  key_buf_.clear();
  key_buf_.append(request.method);
  key_buf_.push_back('\n');
  key_buf_.append(request.path);
  key_buf_.push_back('\n');
  if (!canonical(request, &key_buf_)) return false;
  key_buf_.push_back('\n');
  key_buf_.push_back(request.keep_alive ? 'k' : 'c');
  *key = key_buf_;
  return true;
}

std::uint32_t ResponseCache::NoteScope(std::string_view scope,
                                       std::uint64_t epoch) {
  const auto it = scope_ids_.find(scope);
  if (it == scope_ids_.end()) {
    const auto id = static_cast<std::uint32_t>(scope_epochs_.size());
    scope_ids_.emplace(std::string(scope), id);
    scope_epochs_.push_back(epoch);
    return id;
  }
  const std::uint32_t id = it->second;
  // An older epoch can only be observed across an epoch-source read race;
  // treat any change as an advance — correctness needs only that entries
  // rendered under a different epoch of this scope never replay.
  if (scope_epochs_[id] != epoch) {
    scope_epochs_[id] = epoch;
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  }
  return id;
}

std::size_t ResponseCache::SweepStale() {
  std::size_t reclaimed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.epoch != scope_epochs_[it->second.scope_id]) {
      it = entries_.erase(it);
      ++reclaimed;
    } else {
      ++it;
    }
  }
  if (reclaimed > 0) {
    stale_evictions_.fetch_add(static_cast<std::int64_t>(reclaimed),
                               std::memory_order_relaxed);
    entry_count_.store(entries_.size(), std::memory_order_relaxed);
  }
  return reclaimed;
}

const std::string* ResponseCache::Lookup(std::string_view scope,
                                         std::uint64_t epoch,
                                         std::string_view key) {
  const std::shared_ptr<const std::string>* entry =
      LookupPinned(scope, epoch, key);
  return entry != nullptr ? entry->get() : nullptr;
}

const std::shared_ptr<const std::string>* ResponseCache::LookupPinned(
    std::string_view scope, std::uint64_t epoch, std::string_view key) {
  const std::uint32_t scope_id = NoteScope(scope, epoch);
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.scope_id != scope_id ||
      it->second.epoch != epoch) {
    // Absent, or stale under this scope's epoch: miss.  A stale entry is
    // left in place — the handler's re-render Store()s over it, so the
    // map node (and the key's allocation) is reused.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return &it->second.wire;
}

void ResponseCache::Store(std::string_view scope, std::uint64_t epoch,
                          std::string_view key, std::string wire) {
  if (wire.size() > options_.max_entry_bytes) return;
  const std::uint32_t scope_id = NoteScope(scope, epoch);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Overwrite in place: the stale (or racing) incarnation's bytes stay
    // alive for any LookupPinned() holder via its shared_ptr.
    it->second.wire = std::make_shared<const std::string>(std::move(wire));
    it->second.epoch = epoch;
    it->second.scope_id = scope_id;
    return;
  }
  if (entries_.size() >= options_.max_entries && SweepStale() == 0) {
    return;  // cap reached and everything cached is still fresh
  }
  Entry entry;
  entry.wire = std::make_shared<const std::string>(std::move(wire));
  entry.epoch = epoch;
  entry.scope_id = scope_id;
  entries_.emplace(std::string(key), std::move(entry));
  entry_count_.store(entries_.size(), std::memory_order_relaxed);
}

ResponseCache::Stats ResponseCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.bypass = bypass_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.stale_evictions =
      stale_evictions_.load(std::memory_order_relaxed);
  stats.entries = entry_count_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace aqua
