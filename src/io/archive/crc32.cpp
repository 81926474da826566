#include "io/archive/crc32.hpp"

#include "simd/dispatch.hpp"

namespace cal::io::archive {

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  // Dispatched: bytewise table (scalar tier) or PCLMULQDQ folding
  // (avx2).  Both tiers compute the same IEEE 802.3 CRC; the simd kernel
  // tests pin them against each other.
  return simd::kernels().crc32(data, size, seed);
}

}  // namespace cal::io::archive
