#include "src/core/simd.hpp"

namespace gsnp::core::simd {

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kSse2: return "sse2";
    case Level::kAvx2: return "avx2";
    case Level::kNeon: return "neon";
  }
  return "?";
}

Level active_level() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kSse2;
#elif defined(__aarch64__)
  return Level::kNeon;
#else
  return Level::kScalar;
#endif
}

}  // namespace gsnp::core::simd
