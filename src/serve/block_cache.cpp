#include "serve/block_cache.hpp"

#include "obs/metrics.hpp"

namespace cal::serve {

BlockCache::BlockCache(Options options) : options_(options) {}

std::shared_ptr<const CachedColumn> BlockCache::get(const Key& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    CAL_COUNT("serve.cache.misses", 1);
    return nullptr;
  }
  ++stats_.hits;
  CAL_COUNT("serve.cache.hits", 1);
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->column;
}

void BlockCache::insert(const Key& key,
                        std::shared_ptr<const CachedColumn> column) {
  const std::size_t bytes = column->bytes();
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.count(key) != 0) return;  // first value wins
  ++stats_.inserts;
  CAL_COUNT("serve.cache.inserts", 1);
  // A retain-nothing budget rejects even zero-byte columns.
  if (bytes > options_.byte_budget || options_.byte_budget == 0) {
    ++stats_.rejected;
    CAL_COUNT("serve.cache.rejected", 1);
    return;
  }
  lru_.push_front(Entry{key, std::move(column), bytes});
  index_.emplace(key, lru_.begin());
  stats_.bytes += bytes;
  ++stats_.entries;
  while (stats_.bytes > options_.byte_budget) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.bytes;
    --stats_.entries;
    ++stats_.evictions;
    CAL_COUNT("serve.cache.evictions", 1);
    index_.erase(victim.key);
    lru_.pop_back();
  }
}

BlockCache::Stats BlockCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace cal::serve
