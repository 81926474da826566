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
  index_.line_bytes = spec_.line_bytes;
  index_.sets = sets_;
  index_.pow2 =
      std::has_single_bit(spec_.line_bytes) && std::has_single_bit(sets_);
  if (index_.pow2) {
    index_.line_shift =
        static_cast<unsigned>(std::countr_zero(spec_.line_bytes));
    index_.set_shift = static_cast<unsigned>(std::countr_zero(sets_));
    index_.set_mask = sets_ - 1;
  }
}

bool Cache::access(std::uint64_t paddr) {
  if (fill_.empty()) [[unlikely]] {
    tags_.assign(sets_ * ways_, 0);
    fill_.assign(sets_, 0);
  }
  const std::uint64_t line = index_.line_of(paddr);
  const std::size_t set = index_.set_of_line(line);
  const std::uint64_t tag = index_.tag_of_line(line);
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

void Cache::append_state(std::vector<std::uint64_t>& out) const {
  if (fill_.empty()) {  // never accessed: every set empty
    out.insert(out.end(), sets_, 0);
    return;
  }
  for (std::size_t set = 0; set < sets_; ++set) {
    const std::size_t fill = fill_[set];
    out.push_back(fill);
    const auto first = tags_.begin() + static_cast<std::ptrdiff_t>(set * ways_);
    out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(fill));
  }
}

}  // namespace cal::sim::mem
