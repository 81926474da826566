#pragma once
// Set-associative cache model with true LRU and physical indexing.
//
// Physical indexing is the load-bearing detail: the set index is computed
// from the *physical* address, so the mapping chosen by the page allocator
// decides which lines compete for the same sets.  That interaction --
// 4 KB random pages x 4-way L1 on ARM -- is the whole mechanism behind the
// paper's Fig. 12 anomaly.
//
// Representation: each set keeps its valid tags in recency order, most
// recently used first, plus a fill count.  A hit rotates the tag to the
// front, a miss shifts the set down one way (dropping the LRU tag once
// the set is full) and installs at the front.  That is exactly true LRU
// with empty ways filled first, at 8 bytes per way and no global clock;
// an access to the MRU line changes nothing, which is what lets
// Hierarchy::stream_pass collapse same-line runs into one step, and
// flush() only zeroes the fill counts.  The tag and fill arrays are
// allocated by the first access, not by the constructor: the closed-form
// pass cost never reads them, so a hierarchy that only ever takes it
// never pays for them (1 MiB for an 8 MiB L3).

#include <cstdint>
#include <vector>

#include "sim/machine.hpp"
#include "sim/pmu/pmu.hpp"

namespace cal::sim::mem {

/// Where a physical address lands in one cache level, by value: hot
/// loops copy it into locals, so their counter stores cannot force
/// reloads of the geometry.
struct SetIndex {
  // Shift/mask geometry, valid when pow2 (line size and set count both
  // powers of two); otherwise line_of/set_of_line/tag_of_line divide.
  bool pow2 = false;
  unsigned line_shift = 0;
  unsigned set_shift = 0;
  std::uint64_t set_mask = 0;
  std::size_t line_bytes = 1;
  std::size_t sets = 1;

  std::uint64_t line_of(std::uint64_t paddr) const noexcept {
    return pow2 ? paddr >> line_shift : paddr / line_bytes;
  }
  std::size_t set_of_line(std::uint64_t line) const noexcept {
    return static_cast<std::size_t>(pow2 ? line & set_mask : line % sets);
  }
  std::uint64_t tag_of_line(std::uint64_t line) const noexcept {
    return pow2 ? line >> set_shift : line / sets;
  }
  std::size_t set_of(std::uint64_t paddr) const noexcept {
    return set_of_line(line_of(paddr));
  }
};

class Cache {
 public:
  explicit Cache(const CacheLevelSpec& spec);

  /// Accesses the line containing `paddr`.  Returns true on hit.  On a
  /// miss the line is installed, evicting the LRU way of its set.  The
  /// first access allocates the tag arrays (and may throw bad_alloc).
  bool access(std::uint64_t paddr);

  /// Counts `k` hits on the line that was accessed last, without a
  /// lookup: that line is already MRU in its set, so a re-touch leaves
  /// the recency order unchanged and only the counters move.
  void credit_mru_hits(std::uint64_t k) noexcept {
    hits_ += k;
    if (pmu_ != nullptr) pmu_->count(pmu_hit_, k);
  }

  /// Routes hit/miss events into a simulated PMU file (null detaches;
  /// the detached path costs one predictable null test per access).
  /// The hierarchy decides which event pair this level reports as.
  void attach_pmu(pmu::PmuFile* file, pmu::Event hit_event,
                  pmu::Event miss_event) noexcept {
    pmu_ = file;
    pmu_hit_ = hit_event;
    pmu_miss_ = miss_event;
  }

  /// Invalidates everything (used between unrelated measurements).
  void flush() noexcept;

  const CacheLevelSpec& spec() const noexcept { return spec_; }
  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  void reset_counters() noexcept { hits_ = misses_ = 0; }

  /// Line number of a physical address (paddr / line_bytes).
  std::uint64_t line_of(std::uint64_t paddr) const noexcept {
    return index_.line_of(paddr);
  }

  /// Set index of a physical address under this geometry.
  std::size_t set_of(std::uint64_t paddr) const noexcept {
    return index_.set_of(paddr);
  }

  const SetIndex& set_index() const noexcept { return index_; }

  /// Appends the replacement state -- per set, its fill count and its
  /// valid tags in recency order -- to `out`.  Two caches of one
  /// geometry with equal states behave identically from here on.
  void append_state(std::vector<std::uint64_t>& out) const;

 private:
  CacheLevelSpec spec_;
  std::size_t sets_;
  std::size_t ways_;
  SetIndex index_;
  // tags_[set * ways_ + r] is the r-th most recently used valid tag of
  // `set`, for r < fill_[set]; ways at or past the fill count are empty.
  // Both are empty until the first access.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint32_t> fill_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  pmu::PmuFile* pmu_ = nullptr;
  pmu::Event pmu_hit_ = pmu::Event::kL1Hits;
  pmu::Event pmu_miss_ = pmu::Event::kL1Misses;
};

}  // namespace cal::sim::mem
