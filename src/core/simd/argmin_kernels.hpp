// Argmin kernels for the level-DP inner scans, and the one switch that
// turns a SIMD tier into a kernel type.
//
// Four fold shapes cover every SIMD-able scan of the engine:
//
//   affine  -- the fused Eq. (4) v1 scan of dp_two_level /
//     dp_single_level:  cand[v1] = ev + (exvg + b*k1 + c*ev + d*k2)
//     with ev = everif_row[v1], folded with min+index.
//   sum     -- the E_mem m1 chain and the E_disk d1 pass:
//     cand[i] = a[i] + c[i], folded with min+index.
//   fold    -- the streamed single-level E_disk fold:
//     elementwise run_best[i] = min(run_best[i], base + row[i]) with the
//     argmin row recorded where the update wins.
//   partial -- one hop row of ADMV's inner partial DP:
//     cand[p2] = ((pp + qq*ev) + rr*er) + ep, folded with min+index in
//     the same pass (no candidate row is stored).
//
// Determinism contract (pinned by tests/core/simd_kernels_test.cpp):
//   * strict-less LEFTMOST argmin -- among equal minima the lowest index
//     wins, including ties that straddle vector lanes or the scalar tail;
//   * candidates are evaluated in the scalar association order
//     (((exvg + b*k1) + c*ev) + d*k2, then ev + ...; ((pp + qq*ev) +
//     rr*er) + ep for partial), with separate mul/add (never FMA) so
//     every lane rounds exactly like the scalar loop -- the library
//     builds with -ffp-contract=off so no translation unit contracts;
//   * an incoming (best, best_arg) seed is only displaced by a strictly
//     smaller candidate, exactly like the scalar fold.
//
// ScalarKernels below is the reference: its loops are the drivers' inner
// loops, inlined at every call site.  VectorKernels<W> is the same four
// shapes over W double lanes, written once in argmin_vector.hpp and
// instantiated at W = 4 in argmin_avx2.cpp and at W = 8 in
// argmin_avx512.cpp, each compiled with its own -m flags.  Those members
// may only be CALLED when core::simd::tier_supported() says so;
// with_kernels() dispatches from DpContext::simd_tier(), which
// guarantees that.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/simd/simd_dispatch.hpp"

namespace chainckpt::core::simd {

namespace detail {

/// Whether the per-ISA translation units were built with their -m flags
/// (false when the toolchain lacked them: the file then compiles to
/// baseline code and dispatch never selects the tier).
bool avx2_kernels_compiled() noexcept;
bool avx512_kernels_compiled() noexcept;

}  // namespace detail

/// Reference scalar kernels.  always_inline: the vector tails call them
/// from the ISA translation units, and an inlined body leaves no
/// out-of-line copy there for the linker to pick over the baseline one.
struct ScalarKernels {
  [[gnu::always_inline]] static inline void affine(
      const double* ev_row, const double* exvg, const double* b,
      const double* c, const double* d, double k1, double k2, std::size_t lo,
      std::size_t hi, double& best, std::int32_t& best_arg) {
    for (std::size_t v1 = lo; v1 < hi; ++v1) {
      const double ev = ev_row[v1];
      const double candidate =
          ev + (exvg[v1] + b[v1] * k1 + c[v1] * ev + d[v1] * k2);
      if (candidate < best) {
        best = candidate;
        best_arg = static_cast<std::int32_t>(v1);
      }
    }
  }

  [[gnu::always_inline]] static inline void sum(const double* a,
                                                const double* c,
                                                std::size_t lo,
                                                std::size_t hi, double& best,
                                                std::int32_t& best_arg) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double candidate = a[i] + c[i];
      if (candidate < best) {
        best = candidate;
        best_arg = static_cast<std::int32_t>(i);
      }
    }
  }

  [[gnu::always_inline]] static inline void fold(
      const double* row, double base, std::int32_t arg, double* run_best,
      std::int32_t* run_arg, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double candidate = base + row[i];
      if (candidate < run_best[i]) {
        run_best[i] = candidate;
        run_arg[i] = arg;
      }
    }
  }

  [[gnu::always_inline]] static inline void partial(
      const double* pp, const double* qq, const double* rr, const double* er,
      const double* ep, double ev, std::size_t lo, std::size_t hi,
      double& best, std::int32_t& best_arg) {
    for (std::size_t p2 = lo; p2 < hi; ++p2) {
      const double candidate = pp[p2] + qq[p2] * ev + rr[p2] * er[p2] + ep[p2];
      if (candidate < best) {
        best = candidate;
        best_arg = static_cast<std::int32_t>(p2);
      }
    }
  }
};

/// The four shapes over W double lanes (defined in argmin_vector.hpp,
/// out of line in the per-ISA translation units).
template <int W>
struct VectorKernels {
  static void affine(const double* ev_row, const double* exvg,
                     const double* b, const double* c, const double* d,
                     double k1, double k2, std::size_t lo, std::size_t hi,
                     double& best, std::int32_t& best_arg) noexcept;
  static void sum(const double* a, const double* c, std::size_t lo,
                  std::size_t hi, double& best,
                  std::int32_t& best_arg) noexcept;
  static void fold(const double* row, double base, std::int32_t arg,
                   double* run_best, std::int32_t* run_arg, std::size_t lo,
                   std::size_t hi) noexcept;
  static void partial(const double* pp, const double* qq, const double* rr,
                      const double* er, const double* ep, double ev,
                      std::size_t lo, std::size_t hi, double& best,
                      std::int32_t& best_arg) noexcept;
};

using Avx2Kernels = VectorKernels<4>;
using Avx512Kernels = VectorKernels<8>;

/// Calls fn with the kernel type of `tier` (ScalarKernels, Avx2Kernels or
/// Avx512Kernels, as a value): the one place a tier becomes a type.  A
/// driver instantiates its solve body once per tier through it, so no
/// runtime branch reaches the step body.
template <typename Fn>
decltype(auto) with_kernels(SimdTier tier, Fn&& fn) {
  switch (tier) {
    case SimdTier::kAvx512:
      return fn(Avx512Kernels{});
    case SimdTier::kAvx2:
      return fn(Avx2Kernels{});
    default:
      return fn(ScalarKernels{});
  }
}

}  // namespace chainckpt::core::simd
