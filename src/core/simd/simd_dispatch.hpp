// Runtime SIMD dispatch for the DP argmin kernels.
//
// The level-DP inner scans are unit-stride folds over flat coefficient
// streams (see core/simd/argmin_kernels.hpp); this header decides, once
// per process, which instruction-set tier those folds run on:
//
//   kAvx512  -- 8-lane AVX-512F/VL min+index kernels
//   kAvx2    -- 4-lane AVX2 kernels
//   kScalar  -- the reference formulation (always available)
//
// A tier is eligible only when (a) the kernel translation unit for it was
// compiled with the matching -m flags (tier_compiled), and (b) the CPU
// reports the feature at runtime (__builtin_cpu_supports).  On top of the
// detected tier, two overrides narrow the choice -- they can only select
// an ELIGIBLE tier, never force an unsupported one:
//
//   * the CHAINCKPT_SIMD environment variable ("auto", "avx512", "avx2",
//     "scalar"), read once at first dispatch;
//   * DpContext::set_simd_tier(), a per-solve override for benches and
//     the equivalence batteries (see core/dp_context.hpp).
//
// The first call to active_tier() warns on stderr when CHAINCKPT_SIMD is
// unrecognized or names a tier this CPU/build lacks; the benches report
// the tier that ran themselves (bench_perf_dp's `simd` counter).
//
// Every tier obeys the same determinism contract: strict-less LEFTMOST
// argmin, candidates evaluated with the scalar association order and no
// FMA contraction (the library builds with -ffp-contract=off), so plans,
// objectives, and scan counters are bitwise identical across tiers.
#pragma once

namespace chainckpt::core::simd {

/// Kernel instruction-set tiers, ordered by preference.
enum class SimdTier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Human-readable tier name ("scalar" / "avx2" / "avx512").
const char* tier_name(SimdTier tier) noexcept;

/// True when the kernels for `tier` were compiled into this binary
/// (the build had the -m flags for it); kScalar is always true.
bool tier_compiled(SimdTier tier) noexcept;

/// True when `tier` is compiled in AND the running CPU supports it.
bool tier_supported(SimdTier tier) noexcept;

/// Best supported tier on this CPU/binary, ignoring overrides.
SimdTier detected_tier() noexcept;

/// The tier solves dispatch to: detected_tier() clamped by the
/// CHAINCKPT_SIMD environment override.  Resolved once per process
/// (thread-safe); later env changes are not observed.
SimdTier active_tier() noexcept;

/// Parses "auto"/"avx512"/"avx2"/"scalar" (case-sensitive).  Returns
/// true and writes `out` on success; "auto" maps to detected_tier().
/// Unrecognized strings leave `out` untouched and return false.
bool parse_tier(const char* text, SimdTier& out) noexcept;

/// Clamps a requested tier to the best supported one at or below it
/// (e.g. avx512 requested on an avx2-only CPU resolves to avx2).
SimdTier clamp_tier(SimdTier requested) noexcept;

}  // namespace chainckpt::core::simd
