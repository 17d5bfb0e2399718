// Vectorized argmin primitives for the level-DP inner scans.
//
// Four fold shapes cover every SIMD-able scan of the engine:
//
//   argmin_affine -- the fused Eq. (4) v1 scan of dp_two_level /
//     dp_single_level:  cand[v1] = ev + (exvg + b*k1 + c*ev + d*k2)
//     with ev = everif_row[v1], folded with min+index.
//   argmin_sum    -- the E_mem m1 chain and the E_disk d2 pass:
//     cand[i] = a[i] + c[i], folded with min+index.
//   fold_min_update -- the streamed single-level E_disk fold:
//     elementwise run_best[i] = min(run_best[i], base + row[i]) with the
//     argmin row recorded where the update wins.
//   argmin_partial -- one hop row of ADMV's inner partial DP:
//     cand[p2] = ((pp + qq*ev) + rr*er) + ep, folded with min+index in
//     the same pass (no candidate row is stored).
//
// Determinism contract (shared with the scalar engine, pinned by
// tests/core/simd_kernels_test.cpp):
//   * strict-less LEFTMOST argmin -- among equal minima the lowest index
//     wins, including ties that straddle vector lanes or the scalar tail;
//   * candidates are evaluated in the scalar association order
//     (((exvg + b*k1) + c*ev) + d*k2, then ev + ...; ((pp + qq*ev) +
//     rr*er) + ep for argmin_partial), with separate
//     mul/add (never FMA) so every lane rounds exactly like the scalar
//     loop -- the library builds with -ffp-contract=off to keep the
//     scalar instantiations from contracting either;
//   * an incoming (best, best_arg) seed is only displaced by a strictly
//     smaller candidate, exactly like the scalar fold.
//
// The Kernels<Tier> facades below are what the drivers template over:
// ScalarKernels inlines the reference loops (the dense instantiations
// keep their PR 1-3 codegen), Avx2Kernels/Avx512Kernels forward to the
// out-of-line per-ISA translation units (argmin_avx2.cpp /
// argmin_avx512.cpp), which are compiled with the matching -m flags and
// must only be CALLED when core::simd::tier_supported() says so --
// core::DpContext::simd_tier() guarantees that.
#pragma once

#include <cstddef>
#include <cstdint>

namespace chainckpt::core::simd {

namespace detail {

/// Whether the per-ISA translation units were built with real intrinsics
/// (false when the toolchain lacked the -m flags; the symbols then
/// forward to the scalar loops and dispatch never selects the tier).
bool avx2_kernels_compiled() noexcept;
bool avx512_kernels_compiled() noexcept;

void argmin_affine_avx2(const double* ev_row, const double* exvg,
                        const double* b, const double* c, const double* d,
                        double k1, double k2, std::size_t lo, std::size_t hi,
                        double& best, std::int32_t& best_arg) noexcept;
void argmin_sum_avx2(const double* a, const double* c, std::size_t lo,
                     std::size_t hi, double& best,
                     std::int32_t& best_arg) noexcept;
void fold_min_update_avx2(const double* row, double base, std::int32_t arg,
                          double* run_best, std::int32_t* run_arg,
                          std::size_t lo, std::size_t hi) noexcept;
void argmin_partial_avx2(const double* pp, const double* qq,
                         const double* rr, const double* er,
                         const double* ep, double ev, std::size_t lo,
                         std::size_t hi, double& best,
                         std::int32_t& best_arg) noexcept;

void argmin_affine_avx512(const double* ev_row, const double* exvg,
                          const double* b, const double* c, const double* d,
                          double k1, double k2, std::size_t lo,
                          std::size_t hi, double& best,
                          std::int32_t& best_arg) noexcept;
void argmin_sum_avx512(const double* a, const double* c, std::size_t lo,
                       std::size_t hi, double& best,
                       std::int32_t& best_arg) noexcept;
void fold_min_update_avx512(const double* row, double base, std::int32_t arg,
                            double* run_best, std::int32_t* run_arg,
                            std::size_t lo, std::size_t hi) noexcept;
void argmin_partial_avx512(const double* pp, const double* qq,
                           const double* rr, const double* er,
                           const double* ep, double ev, std::size_t lo,
                           std::size_t hi, double& best,
                           std::int32_t& best_arg) noexcept;

}  // namespace detail

/// Reference scalar kernels.  These loops ARE the historic inner loops of
/// dp_two_level / level_dp / dp_single_level / dp_partial, factored here so
/// (a) the ScalarKernels instantiations of the drivers keep their fused
/// codegen (single call site, trivially inlined) and (b) the vector tiers
/// have an in-crate oracle to be bit-compared against.
struct ScalarKernels {
  static constexpr bool kVector = false;

  static inline void affine(const double* ev_row, const double* exvg,
                            const double* b, const double* c,
                            const double* d, double k1, double k2,
                            std::size_t lo, std::size_t hi, double& best,
                            std::int32_t& best_arg) {
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

  static inline void sum(const double* a, const double* c, std::size_t lo,
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

  static inline void fold(const double* row, double base, std::int32_t arg,
                          double* run_best, std::int32_t* run_arg,
                          std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double candidate = base + row[i];
      if (candidate < run_best[i]) {
        run_best[i] = candidate;
        run_arg[i] = arg;
      }
    }
  }

  static inline void partial(const double* pp, const double* qq,
                             const double* rr, const double* er,
                             const double* ep, double ev, std::size_t lo,
                             std::size_t hi, double& best,
                             std::int32_t& best_arg) {
    for (std::size_t p2 = lo; p2 < hi; ++p2) {
      const double candidate = pp[p2] + qq[p2] * ev + rr[p2] * er[p2] + ep[p2];
      if (candidate < best) {
        best = candidate;
        best_arg = static_cast<std::int32_t>(p2);
      }
    }
  }
};

/// 4-lane AVX2 kernels (out-of-line; see argmin_avx2.cpp).
struct Avx2Kernels {
  static constexpr bool kVector = true;

  static inline void affine(const double* ev_row, const double* exvg,
                            const double* b, const double* c,
                            const double* d, double k1, double k2,
                            std::size_t lo, std::size_t hi, double& best,
                            std::int32_t& best_arg) {
    detail::argmin_affine_avx2(ev_row, exvg, b, c, d, k1, k2, lo, hi, best,
                               best_arg);
  }
  static inline void sum(const double* a, const double* c, std::size_t lo,
                         std::size_t hi, double& best,
                         std::int32_t& best_arg) {
    detail::argmin_sum_avx2(a, c, lo, hi, best, best_arg);
  }
  static inline void fold(const double* row, double base, std::int32_t arg,
                          double* run_best, std::int32_t* run_arg,
                          std::size_t lo, std::size_t hi) {
    detail::fold_min_update_avx2(row, base, arg, run_best, run_arg, lo, hi);
  }
  static inline void partial(const double* pp, const double* qq,
                             const double* rr, const double* er,
                             const double* ep, double ev, std::size_t lo,
                             std::size_t hi, double& best,
                             std::int32_t& best_arg) {
    detail::argmin_partial_avx2(pp, qq, rr, er, ep, ev, lo, hi, best,
                                best_arg);
  }
};

/// 8-lane AVX-512F/VL kernels (out-of-line; see argmin_avx512.cpp).
struct Avx512Kernels {
  static constexpr bool kVector = true;

  static inline void affine(const double* ev_row, const double* exvg,
                            const double* b, const double* c,
                            const double* d, double k1, double k2,
                            std::size_t lo, std::size_t hi, double& best,
                            std::int32_t& best_arg) {
    detail::argmin_affine_avx512(ev_row, exvg, b, c, d, k1, k2, lo, hi,
                                 best, best_arg);
  }
  static inline void sum(const double* a, const double* c, std::size_t lo,
                         std::size_t hi, double& best,
                         std::int32_t& best_arg) {
    detail::argmin_sum_avx512(a, c, lo, hi, best, best_arg);
  }
  static inline void fold(const double* row, double base, std::int32_t arg,
                          double* run_best, std::int32_t* run_arg,
                          std::size_t lo, std::size_t hi) {
    detail::fold_min_update_avx512(row, base, arg, run_best, run_arg, lo,
                                   hi);
  }
  static inline void partial(const double* pp, const double* qq,
                             const double* rr, const double* er,
                             const double* ep, double ev, std::size_t lo,
                             std::size_t hi, double& best,
                             std::int32_t& best_arg) {
    detail::argmin_partial_avx512(pp, qq, rr, er, ep, ev, lo, hi, best,
                                  best_arg);
  }
};

}  // namespace chainckpt::core::simd
