#include "simd/dispatch.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "simd/kernels.hpp"

namespace cal::simd {

namespace {

const Kernels kScalarTable = {
    detail::delta_varint_decode_scalar,
    detail::crc32_scalar,
    detail::lz_match_copy_scalar,
    detail::f64le_decode_scalar,
    detail::cmp_mask_f64_scalar,
    detail::cmp_mask_i64_scalar,
    detail::welford_fold_scalar,
    detail::mask_and_scalar,
    detail::mask_or_scalar,
    detail::mask_not_scalar,
    detail::mask_count_scalar,
};

// The varint decode, Welford fold and mask AND/OR failed the keep rule
// (dispatch.hpp): the vector varint scan only pays on runs of one-byte
// varints and loses on multi-byte ones, a vector fold only skipped
// masked-off runs, and the compiler already vectorizes the scalar
// AND/OR loops.
const Kernels kAvx2Table = {
    detail::delta_varint_decode_scalar,
    detail::crc32_clmul,
    detail::lz_match_copy_chunked,
    detail::f64le_decode_bulk,
    detail::cmp_mask_f64_avx2,
    detail::cmp_mask_i64_avx2,
    detail::welford_fold_scalar,
    detail::mask_and_scalar,
    detail::mask_or_scalar,
    detail::mask_not_avx2,
    detail::mask_count_avx2,
};

/// AVX2 does not imply PCLMULQDQ; the avx2 table needs both, so a CPU
/// with only one of them runs the scalar table.
Level probe_best() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

Level clamp(Level level) noexcept {
  return static_cast<int>(level) > static_cast<int>(best_supported())
             ? best_supported()
             : level;
}

const Kernels& table_for(Level level) noexcept {
  return level == Level::kAvx2 ? kAvx2Table : kScalarTable;
}

Level initial_level() noexcept {
  const char* env = std::getenv("CAL_SIMD");
  const Level best = best_supported();
  if (env == nullptr) return best;
  Level parsed = Level::kScalar;
  if (parse_level(env, &parsed)) return clamp(parsed);
  // The variable is a testing knob, not config: an unknown value keeps
  // the probed best, but says so -- a stale value in a script would
  // otherwise quietly test a different level than it names.
  std::fprintf(stderr,
               "calipers: ignoring unknown CAL_SIMD=\"%s\" (accepted: "
               "scalar|avx2); using %s\n",
               env, to_string(best));
  return best;
}

std::atomic<const Kernels*>& active_table() noexcept {
  static std::atomic<const Kernels*> table{&table_for(initial_level())};
  return table;
}

}  // namespace

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kAvx2: return "avx2";
  }
  return "?";
}

bool parse_level(const std::string& name, Level* out) noexcept {
  if (name == "scalar") { *out = Level::kScalar; return true; }
  if (name == "avx2") { *out = Level::kAvx2; return true; }
  return false;
}

Level best_supported() noexcept {
  static const Level best = probe_best();
  return best;
}

Level active_level() noexcept {
  return &kernels() == &kAvx2Table ? Level::kAvx2 : Level::kScalar;
}

void set_level(Level level) noexcept {
  active_table().store(&table_for(clamp(level)), std::memory_order_release);
}

const Kernels& kernels() noexcept {
  return *active_table().load(std::memory_order_acquire);
}

const Kernels& kernels_at(Level level) noexcept {
  return table_for(clamp(level));
}

}  // namespace cal::simd
