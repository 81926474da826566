#pragma once
// Virtual buffer -> physical address translation.
//
// A Buffer is a contiguous virtual range backed by a list of physical
// page frames.  translate() is the page-table walk; it is where the page
// allocator's choices become visible to the physically-indexed caches.

#include <cstdint>
#include <vector>

namespace cal::sim::mem {

class Buffer {
 public:
  /// A buffer of `size_bytes` starting `offset_bytes` into the region
  /// described by `frames` (offset + size must fit).
  Buffer(std::vector<std::uint32_t> frames, std::size_t page_bytes,
         std::size_t size_bytes, std::size_t offset_bytes = 0);

  /// Physical address of byte `voffset` (< size()).
  /// Power-of-two pages (every paper machine's) shift and mask instead
  /// of dividing.
  std::uint64_t translate(std::size_t voffset) const noexcept {
    const std::size_t addr = offset_ + voffset;
    if (page_shift_ != kNoShift) {
      return (static_cast<std::uint64_t>(frames_[addr >> page_shift_])
              << page_shift_) |
             (addr & (page_bytes_ - 1));
    }
    const std::size_t page = addr / page_bytes_;
    const std::size_t in_page = addr % page_bytes_;
    return static_cast<std::uint64_t>(frames_[page]) * page_bytes_ + in_page;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t page_bytes() const noexcept { return page_bytes_; }
  /// Byte offset of the buffer's start into the region `frames` backs.
  std::size_t offset() const noexcept { return offset_; }
  const std::vector<std::uint32_t>& frames() const noexcept { return frames_; }

 private:
  static constexpr unsigned kNoShift = ~0u;

  std::vector<std::uint32_t> frames_;
  std::size_t page_bytes_;
  unsigned page_shift_ = kNoShift;  ///< log2(page_bytes_) when a power of 2
  std::size_t size_;
  std::size_t offset_;
};

}  // namespace cal::sim::mem
