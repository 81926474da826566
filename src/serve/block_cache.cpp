#include "serve/block_cache.hpp"

#include "obs/metrics.hpp"

namespace cal::serve {

BlockCache::BlockCache(Options options) : options_(options) {}

std::shared_ptr<const CachedColumn> BlockCache::get(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end() || !it->second || it->second->pending) {
    ++stats_.misses;
    CAL_COUNT("serve.cache.misses", 1);
    return nullptr;
  }
  ++stats_.hits;
  CAL_COUNT("serve.cache.hits", 1);
  if (it->second->retained) {
    lru_.splice(lru_.begin(), lru_, it->second->lru);
  }
  return it->second->column;
}

std::shared_ptr<const CachedColumn> BlockCache::get_or_begin(const Key& key,
                                                             bool* owner) {
  *owner = false;
  if (!options_.enabled) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    CAL_COUNT("serve.cache.misses", 1);
    *owner = true;
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second->pending) {
      ++stats_.coalesced;
      CAL_COUNT("serve.cache.coalesced", 1);
      return nullptr;  // another thread is decoding this column
    }
    ++stats_.hits;
    CAL_COUNT("serve.cache.hits", 1);
    if (it->second->retained) {
      lru_.splice(lru_.begin(), lru_, it->second->lru);
    }
    return it->second->column;
  }
  ++stats_.misses;
  CAL_COUNT("serve.cache.misses", 1);
  entries_.emplace(key, std::make_shared<Entry>());
  *owner = true;
  return nullptr;
}

std::shared_ptr<const CachedColumn> BlockCache::wait(const Key& key) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  // Hold the entry across the wait: insert() may drop an unretained
  // entry from the map right after resolving it, but the value stays
  // reachable through this shared_ptr.
  const std::shared_ptr<Entry> entry = it->second;
  resolved_cv_.wait(lock, [&] { return !entry->pending; });
  return entry->column;
}

void BlockCache::insert(const Key& key,
                        std::shared_ptr<const CachedColumn> column) {
  if (!options_.enabled) return;
  const std::size_t bytes = column->bytes();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end() && !it->second->pending) {
    return;  // already resolved by someone else; first value wins
  }
  if (it == entries_.end()) {
    it = entries_.emplace(key, std::make_shared<Entry>()).first;
  }
  const std::shared_ptr<Entry> entry = it->second;
  entry->column = std::move(column);
  entry->bytes = bytes;
  entry->pending = false;
  ++stats_.inserts;
  CAL_COUNT("serve.cache.inserts", 1);
  resolved_cv_.notify_all();

  if (bytes > options_.byte_budget || options_.byte_budget == 0) {
    // Wider than the whole budget (or a retain-nothing budget, which
    // must reject even zero-byte columns): waiters got the value,
    // nothing is retained, and stats_.bytes is never charged -- the
    // entry leaves the map without ever touching the LRU list, so
    // shrink_locked() cannot meet it.  Live wait() calls keep the Entry
    // object alive through their shared_ptr.
    ++stats_.rejected;
    CAL_COUNT("serve.cache.rejected", 1);
    entries_.erase(it);
    return;
  }
  entry->lru = lru_.insert(lru_.begin(), key);
  entry->retained = true;
  stats_.bytes += bytes;
  ++stats_.entries;
  shrink_locked();
}

void BlockCache::abandon(const Key& key) {
  if (!options_.enabled) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end() || !it->second->pending) return;
  const std::shared_ptr<Entry> entry = it->second;
  entry->pending = false;  // column stays null: waiters retry
  entries_.erase(it);
  ++stats_.abandoned;
  CAL_COUNT("serve.cache.abandoned", 1);
  resolved_cv_.notify_all();
}

void BlockCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second->pending) {
      ++it;  // in-flight decodes resolve normally
    } else {
      it = entries_.erase(it);
    }
  }
  lru_.clear();
  stats_.bytes = 0;
  stats_.entries = 0;
}

BlockCache::Stats BlockCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void BlockCache::shrink_locked() {
  while (stats_.bytes > options_.byte_budget && !lru_.empty()) {
    const Key victim = lru_.back();
    const auto it = entries_.find(victim);
    if (it != entries_.end() && it->second->retained) {
      stats_.bytes -= it->second->bytes;
      --stats_.entries;
      ++stats_.evictions;
      CAL_COUNT("serve.cache.evictions", 1);
      entries_.erase(it);
    }
    lru_.pop_back();
  }
}

}  // namespace cal::serve
