#include "core/simd/simd_dispatch.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/simd/argmin_kernels.hpp"

namespace chainckpt::core::simd {

const char* tier_name(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kAvx512:
      return "avx512";
    case SimdTier::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

bool tier_compiled(SimdTier tier) noexcept {
  switch (tier) {
    case SimdTier::kAvx512:
      return detail::avx512_kernels_compiled();
    case SimdTier::kAvx2:
      return detail::avx2_kernels_compiled();
    default:
      return true;
  }
}

bool tier_supported(SimdTier tier) noexcept {
  if (!tier_compiled(tier)) return false;
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  switch (tier) {
    case SimdTier::kAvx512:
      // The kernels use F (doubles, masks) and VL (256-bit int32 masked
      // blends in the fold kernel).
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512vl");
    case SimdTier::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    default:
      return true;
  }
#else
  return tier == SimdTier::kScalar;
#endif
}

SimdTier detected_tier() noexcept {
  if (tier_supported(SimdTier::kAvx512)) return SimdTier::kAvx512;
  if (tier_supported(SimdTier::kAvx2)) return SimdTier::kAvx2;
  return SimdTier::kScalar;
}

bool parse_tier(const char* text, SimdTier& out) noexcept {
  if (text == nullptr) return false;
  if (std::strcmp(text, "auto") == 0) {
    out = detected_tier();
    return true;
  }
  if (std::strcmp(text, "avx512") == 0) {
    out = SimdTier::kAvx512;
    return true;
  }
  if (std::strcmp(text, "avx2") == 0) {
    out = SimdTier::kAvx2;
    return true;
  }
  if (std::strcmp(text, "scalar") == 0) {
    out = SimdTier::kScalar;
    return true;
  }
  return false;
}

SimdTier clamp_tier(SimdTier requested) noexcept {
  for (int t = static_cast<int>(requested);
       t > static_cast<int>(SimdTier::kScalar); --t) {
    if (tier_supported(static_cast<SimdTier>(t))) {
      return static_cast<SimdTier>(t);
    }
  }
  return SimdTier::kScalar;
}

namespace {

/// Resolves detected tier + CHAINCKPT_SIMD once, warning on stderr when
/// the request cannot be honored.
SimdTier resolve_active_tier() {
  const SimdTier detected = detected_tier();
  const char* env = std::getenv("CHAINCKPT_SIMD");
  if (env == nullptr) return detected;
  SimdTier requested;
  if (!parse_tier(env, requested)) {
    std::fprintf(stderr,
                 "[chainckpt warn] simd: unrecognized CHAINCKPT_SIMD=\"%s\" "
                 "(want auto|avx512|avx2|scalar); using %s\n",
                 env, tier_name(detected));
    return detected;
  }
  const SimdTier clamped = clamp_tier(requested);
  if (clamped != requested) {
    std::fprintf(stderr,
                 "[chainckpt warn] simd: CHAINCKPT_SIMD=%s not supported on "
                 "this CPU/build; clamping to %s\n",
                 env, tier_name(clamped));
  }
  return clamped;
}

}  // namespace

SimdTier active_tier() noexcept {
  static const SimdTier tier = resolve_active_tier();
  return tier;
}

}  // namespace chainckpt::core::simd
