// AVX-512 (8-lane) argmin kernels.  Compiled with -mavx512f -mavx512vl
// when the toolchain accepts them (see CMakeLists).  Same determinism
// contract as argmin_avx2.cpp: separate mul/add in the scalar
// association order (no FMA; the library builds with -ffp-contract=off),
// strict-less _CMP_LT_OQ lane updates so each lane keeps the EARLIEST
// index of its lane-min, and a lowest-index tie-breaking lane reduction,
// which together reproduce the global leftmost strict-less argmin bit
// for bit.  VL is required for the 256-bit int32 masked store in the
// fold kernel.
//
// Must only be called when core::simd::tier_supported(kAvx512) is true;
// without the -m flags the symbols degrade to the scalar loops and
// avx512_kernels_compiled() reports false so dispatch never selects the
// tier.
#include "core/simd/argmin_kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512VL__)
#include <immintrin.h>

#include <limits>
#endif

namespace chainckpt::core::simd::detail {

#if defined(__AVX512F__) && defined(__AVX512VL__)

bool avx512_kernels_compiled() noexcept { return true; }

namespace {

/// Folds 8 lane-local (value, first-index) pairs into (best, best_arg):
/// lowest value wins, ties by lowest index, and the incoming seed is only
/// displaced by a strictly smaller value -- the scalar fold's semantics.
inline void merge_lanes(__m512d vbest, __m512i vidx, double& best,
                        std::int32_t& best_arg) noexcept {
  alignas(64) double vals[8];
  alignas(64) long long idxs[8];
  _mm512_store_pd(vals, vbest);
  _mm512_store_si512(reinterpret_cast<__m512i*>(idxs), vidx);
  double m = vals[0];
  long long mi = idxs[0];
  for (int l = 1; l < 8; ++l) {
    if (vals[l] < m || (vals[l] == m && idxs[l] < mi)) {
      m = vals[l];
      mi = idxs[l];
    }
  }
  if (m < best) {
    best = m;
    best_arg = static_cast<std::int32_t>(mi);
  }
}

}  // namespace

void argmin_affine_avx512(const double* ev_row, const double* exvg,
                          const double* b, const double* c, const double* d,
                          double k1, double k2, std::size_t lo,
                          std::size_t hi, double& best,
                          std::int32_t& best_arg) noexcept {
  std::size_t v1 = lo;
  if (hi - lo >= 16) {
    const __m512d vk1 = _mm512_set1_pd(k1);
    const __m512d vk2 = _mm512_set1_pd(k2);
    __m512d vbest = _mm512_set1_pd(std::numeric_limits<double>::infinity());
    __m512i vidx = _mm512_set1_epi64(-1);
    __m512i cur = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(lo)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    const __m512i step = _mm512_set1_epi64(8);
    for (; v1 + 8 <= hi; v1 += 8) {
      const __m512d ev = _mm512_loadu_pd(ev_row + v1);
      // ((exvg + b*k1) + c*ev) + d*k2, then ev + ... -- the scalar order.
      __m512d t = _mm512_add_pd(_mm512_loadu_pd(exvg + v1),
                                _mm512_mul_pd(_mm512_loadu_pd(b + v1), vk1));
      t = _mm512_add_pd(t, _mm512_mul_pd(_mm512_loadu_pd(c + v1), ev));
      t = _mm512_add_pd(t, _mm512_mul_pd(_mm512_loadu_pd(d + v1), vk2));
      const __m512d cand = _mm512_add_pd(ev, t);
      const __mmask8 lt = _mm512_cmp_pd_mask(cand, vbest, _CMP_LT_OQ);
      vbest = _mm512_mask_blend_pd(lt, vbest, cand);
      vidx = _mm512_mask_blend_epi64(lt, vidx, cur);
      cur = _mm512_add_epi64(cur, step);
    }
    merge_lanes(vbest, vidx, best, best_arg);
  }
  for (; v1 < hi; ++v1) {
    const double ev = ev_row[v1];
    const double candidate =
        ev + (exvg[v1] + b[v1] * k1 + c[v1] * ev + d[v1] * k2);
    if (candidate < best) {
      best = candidate;
      best_arg = static_cast<std::int32_t>(v1);
    }
  }
}

void argmin_sum_avx512(const double* a, const double* c, std::size_t lo,
                       std::size_t hi, double& best,
                       std::int32_t& best_arg) noexcept {
  std::size_t i = lo;
  if (hi - lo >= 16) {
    __m512d vbest = _mm512_set1_pd(std::numeric_limits<double>::infinity());
    __m512i vidx = _mm512_set1_epi64(-1);
    __m512i cur = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(lo)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    const __m512i step = _mm512_set1_epi64(8);
    for (; i + 8 <= hi; i += 8) {
      const __m512d cand =
          _mm512_add_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(c + i));
      const __mmask8 lt = _mm512_cmp_pd_mask(cand, vbest, _CMP_LT_OQ);
      vbest = _mm512_mask_blend_pd(lt, vbest, cand);
      vidx = _mm512_mask_blend_epi64(lt, vidx, cur);
      cur = _mm512_add_epi64(cur, step);
    }
    merge_lanes(vbest, vidx, best, best_arg);
  }
  for (; i < hi; ++i) {
    const double candidate = a[i] + c[i];
    if (candidate < best) {
      best = candidate;
      best_arg = static_cast<std::int32_t>(i);
    }
  }
}

void fold_min_update_avx512(const double* row, double base, std::int32_t arg,
                            double* run_best, std::int32_t* run_arg,
                            std::size_t lo, std::size_t hi) noexcept {
  std::size_t i = lo;
  if (hi - lo >= 16) {
    const __m512d vbase = _mm512_set1_pd(base);
    const __m256i varg = _mm256_set1_epi32(arg);
    for (; i + 8 <= hi; i += 8) {
      const __m512d cand = _mm512_add_pd(vbase, _mm512_loadu_pd(row + i));
      const __m512d rb = _mm512_loadu_pd(run_best + i);
      const __mmask8 lt = _mm512_cmp_pd_mask(cand, rb, _CMP_LT_OQ);
      _mm512_storeu_pd(run_best + i, _mm512_mask_blend_pd(lt, rb, cand));
      _mm256_mask_storeu_epi32(run_arg + i, lt, varg);
    }
  }
  for (; i < hi; ++i) {
    const double candidate = base + row[i];
    if (candidate < run_best[i]) {
      run_best[i] = candidate;
      run_arg[i] = arg;
    }
  }
}

void argmin_partial_avx512(const double* pp, const double* qq,
                           const double* rr, const double* er,
                           const double* ep, double ev, std::size_t lo,
                           std::size_t hi, double& best,
                           std::int32_t& best_arg) noexcept {
  std::size_t i = lo;
  if (hi - lo >= 16) {
    const __m512d vev = _mm512_set1_pd(ev);
    __m512d vbest = _mm512_set1_pd(std::numeric_limits<double>::infinity());
    __m512i vidx = _mm512_set1_epi64(-1);
    __m512i cur = _mm512_add_epi64(
        _mm512_set1_epi64(static_cast<long long>(lo)),
        _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    const __m512i step = _mm512_set1_epi64(8);
    for (; i + 8 <= hi; i += 8) {
      // ((pp + qq*ev) + rr*er) + ep -- the scalar order.
      __m512d t = _mm512_add_pd(_mm512_loadu_pd(pp + i),
                                _mm512_mul_pd(_mm512_loadu_pd(qq + i), vev));
      t = _mm512_add_pd(t, _mm512_mul_pd(_mm512_loadu_pd(rr + i),
                                         _mm512_loadu_pd(er + i)));
      const __m512d cand = _mm512_add_pd(t, _mm512_loadu_pd(ep + i));
      const __mmask8 lt = _mm512_cmp_pd_mask(cand, vbest, _CMP_LT_OQ);
      vbest = _mm512_mask_blend_pd(lt, vbest, cand);
      vidx = _mm512_mask_blend_epi64(lt, vidx, cur);
      cur = _mm512_add_epi64(cur, step);
    }
    merge_lanes(vbest, vidx, best, best_arg);
  }
  ScalarKernels::partial(pp, qq, rr, er, ep, ev, i, hi, best, best_arg);
}

#else  // no AVX-512F/VL toolchain support: scalar forwarding stubs.

bool avx512_kernels_compiled() noexcept { return false; }

void argmin_affine_avx512(const double* ev_row, const double* exvg,
                          const double* b, const double* c, const double* d,
                          double k1, double k2, std::size_t lo,
                          std::size_t hi, double& best,
                          std::int32_t& best_arg) noexcept {
  ScalarKernels::affine(ev_row, exvg, b, c, d, k1, k2, lo, hi, best,
                        best_arg);
}
void argmin_sum_avx512(const double* a, const double* c, std::size_t lo,
                       std::size_t hi, double& best,
                       std::int32_t& best_arg) noexcept {
  ScalarKernels::sum(a, c, lo, hi, best, best_arg);
}
void fold_min_update_avx512(const double* row, double base, std::int32_t arg,
                            double* run_best, std::int32_t* run_arg,
                            std::size_t lo, std::size_t hi) noexcept {
  ScalarKernels::fold(row, base, arg, run_best, run_arg, lo, hi);
}
void argmin_partial_avx512(const double* pp, const double* qq,
                           const double* rr, const double* er,
                           const double* ep, double ev, std::size_t lo,
                           std::size_t hi, double& best,
                           std::int32_t& best_arg) noexcept {
  ScalarKernels::partial(pp, qq, rr, er, ep, ev, lo, hi, best, best_arg);
}

#endif

}  // namespace chainckpt::core::simd::detail
