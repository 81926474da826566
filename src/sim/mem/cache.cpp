#include "sim/mem/cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace cal::sim::mem {

Cache::Cache(const CacheLevelSpec& spec)
    : spec_(spec), sets_(spec.sets()), ways_(spec.ways) {
  if (sets_ == 0 || ways_ == 0) {
    throw std::invalid_argument("Cache: geometry yields zero sets/ways");
  }
  if (spec_.size_bytes % (spec_.line_bytes * spec_.ways) != 0) {
    throw std::invalid_argument(
        "Cache: size must be a multiple of line_bytes * ways");
  }
  pow2_ = std::has_single_bit(spec_.line_bytes) && std::has_single_bit(sets_);
  if (pow2_) {
    line_shift_ = static_cast<unsigned>(std::countr_zero(spec_.line_bytes));
    set_shift_ = static_cast<unsigned>(std::countr_zero(sets_));
    set_mask_ = sets_ - 1;
  }
  tags_.assign(sets_ * ways_, 0);
  fill_.assign(sets_, 0);
}

bool Cache::access(std::uint64_t paddr) noexcept {
  const std::uint64_t line = line_of(paddr);
  const std::size_t set = set_of_line(line);
  const std::uint64_t tag = tag_of_line(line);
  std::uint64_t* const ways = tags_.data() + set * ways_;
  const std::size_t fill = fill_[set];

  for (std::size_t r = 0; r < fill; ++r) {
    if (ways[r] == tag) {
      // Hit: promote to MRU, ageing the r more recent tags by one.
      std::copy_backward(ways, ways + r, ways + r + 1);
      ways[0] = tag;
      ++hits_;
      if (pmu_ != nullptr) pmu_->count(pmu_hit_);
      return true;
    }
  }

  // Miss: fill an empty way if any, else evict the LRU (last) tag.
  ++misses_;
  if (pmu_ != nullptr) pmu_->count(pmu_miss_);
  const std::size_t kept = fill < ways_ ? fill : ways_ - 1;
  std::copy_backward(ways, ways + kept, ways + kept + 1);
  ways[0] = tag;
  if (fill < ways_) fill_[set] = static_cast<std::uint32_t>(fill + 1);
  return false;
}

void Cache::flush() noexcept { std::fill(fill_.begin(), fill_.end(), 0u); }

}  // namespace cal::sim::mem
