#include "sim/mem/address_space.hpp"

#include <bit>
#include <stdexcept>

namespace cal::sim::mem {

Buffer::Buffer(std::vector<std::uint32_t> frames, std::size_t page_bytes,
               std::size_t size_bytes, std::size_t offset_bytes)
    : frames_(std::move(frames)),
      page_bytes_(page_bytes),
      size_(size_bytes),
      offset_(offset_bytes) {
  if (page_bytes_ == 0) throw std::invalid_argument("Buffer: zero page size");
  if (size_ == 0) throw std::invalid_argument("Buffer: zero size");
  if (offset_ + size_ > frames_.size() * page_bytes_) {
    throw std::invalid_argument("Buffer: offset+size exceeds backing pages");
  }
  if (std::has_single_bit(page_bytes_)) {
    page_shift_ = static_cast<unsigned>(std::countr_zero(page_bytes_));
  }
}

}  // namespace cal::sim::mem
