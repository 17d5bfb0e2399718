// Argmin kernels for the level-DP inner scans, and the one switch that
// turns a SIMD tier into a kernel type.
//
// Five fold shapes cover every SIMD-able scan of the engine:
//
//   affine  -- the fused Eq. (4) v1 scan of dp_two_level /
//     dp_single_level:  cand[v1] = ev + (exvg + b*k1 + c*ev + d*k2)
//     with ev = everif_row[v1], folded with min+index.
//   affine_rows -- affine over kGroupRows E_verif rows at once, each
//     with its own (k1, k2) and (best, best_arg), on one column j:
//     dp_single_level's row groups, which read each column once per
//     group instead of once per row.
//   sum     -- the E_mem m1 chain and the E_disk d1 pass:
//     cand[i] = a[i] + c[i], folded with min+index.
//   fold    -- the streamed single-level E_disk fold:
//     elementwise run_best[i] = min(run_best[i], base + row[i]) with the
//     argmin row recorded where the update wins.
//   partial -- one whole (d1, m1, j) v1 scan of ADMV's inner partial DP
//     (see PartialScan): every v1 in [m1, j) runs its own right-to-left
//     recursion, one v1 per lane, and the v1 results are folded last.
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
//     smaller candidate, exactly like the scalar fold;
//   * partial puts its lanes across v1, not along a hop row: each lane
//     folds its own hops p2 = p1 + 1 ... j - 1 in ascending order with a
//     vertical strict-less compare, seeded by the terminal choice p2 = j,
//     so it makes exactly the scalar loop's choices.  No lane reads
//     another, and the closing v1 fold reads only v1 < j, never a padded
//     lane.
//
// ScalarKernels below is the reference: its loops are the drivers' inner
// loops, inlined at every call site.  VectorKernels<W> is the same five
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

/// One (d1, m1, j) scan of ADMV's inner DP (core/dp_partial.cpp).  The
/// row streams are analysis::SegmentRows' -- entry [i * stride + p] for
/// left endpoint i and right endpoint p -- and the columns are the
/// segment tables' to the scan's right endpoint j.  For v1 in [m1, j) the
/// recursion runs p1 = j - 1 down to v1:
///
///   E_partial(p1) = min( T(p1) + c_j(p1)*ev,                 p2 = j
///                        min over p2 in (p1, j) of
///                        ((P(p2) + Q(p2)*ev) + R(p2)*E_right(p2))
///                        + E_partial(p2) )
///
/// with ev = E_verif(d1, m1, v1), row p1's hop coefficients P/Q/R and
/// terminal base T (partial_row), and E_right stepped along the chosen
/// hop (partial_right_step).
struct PartialScan {
  const double* exv;
  const double* b;
  const double* c;
  const double* d;
  const double* tl;
  const double* pf;
  const double* ef;
  const double* w;
  std::size_t stride;
  const double* vp;       ///< partial-verification cost after p
  const double* fs_to_j;  ///< e^{(lf+ls) W_{p,j}} over p
  const double* c_to_j;   ///< the E_verif coefficient of (p, j] over p
  double upgrade;         ///< V*(j) - V(j), the terminal's upgrade
  double g;               ///< miss probability of a partial verification
  double k1;              ///< R_D + E_mem
  double rm_hit;          ///< (1 - g) R_M
  double r_mem;           ///< R_M = E_right(j)
};

/// The widest lane count: lane strides are multiples of it, so the state
/// layout is the same at every tier.
constexpr std::size_t kMaxLanes = 8;

/// Rows of one affine_rows call: the E_verif rows dp_single_level steps
/// through the right endpoints together.
constexpr std::size_t kGroupRows = 8;

/// Lane stride of a partial scan over `len` v1 lanes.
[[gnu::always_inline]] constexpr std::size_t partial_lane_stride(
    std::size_t len) {
  return (len + kMaxLanes - 1) / kMaxLanes * kMaxLanes;
}

/// Buffers of a partial scan over v1 in [lo, hi), len = hi - lo lanes at
/// stride L = partial_lane_stride(len).  pp/qq/rr hold the current row's
/// P/Q/R by absolute p2 (hi entries); ev holds E_verif by lane (L); ep,
/// er and next hold every lane's recursion state over rows p in [lo, hi]
/// at [(p - lo) * L + lane] ((len + 1) * L entries).  Lane v1 - lo's
/// E_partial(v1) ends on row v1, so lane 0's next chain is v1 = lo's
/// partial positions.
struct PartialLanes {
  double* pp;
  double* qq;
  double* rr;
  double* ev;
  double* ep;
  double* er;
  std::int32_t* next;
};

namespace detail {

/// Fills row p1's hop coefficients P/Q/R over p2 in (p1, j) and returns
/// its terminal base T(p1), with K1 = R_D + E_mem and RMh = (1-g) R_M:
///
///   P = [exv + b*K1 + d*RMh] * fs,  Q = c * fs,  R = d * (g * fs)
///   T = exv_j + b_j*K1 + d_j*(RMh + g*R_M) + fs(p1) * (V* - V)
///
/// where fs = e^{(lf+ls) W_{p2,j}} re-injects the E_left term removed
/// from the segment cost, and T upgrades the closing verification.
[[gnu::always_inline]] inline double partial_row(const PartialScan& s,
                                                 std::size_t p1,
                                                 std::size_t j,
                                                 const PartialLanes& out) {
  const std::size_t row = p1 * s.stride;
  const double* exv = s.exv + row;
  const double* b = s.b + row;
  const double* c = s.c + row;
  const double* d = s.d + row;
  for (std::size_t p2 = p1 + 1; p2 < j; ++p2) {
    const double fs = s.fs_to_j[p2];
    out.pp[p2] = (exv[p2] + b[p2] * s.k1 + d[p2] * s.rm_hit) * fs;
    out.qq[p2] = c[p2] * fs;
    out.rr[p2] = d[p2] * (s.g * fs);
  }
  return exv[j] + b[j] * s.k1 + d[j] * (s.rm_hit + s.g * s.r_mem) +
         s.fs_to_j[p1] * s.upgrade;
}

/// E_right along the chosen chain, for lanes [0, active) of row p1: the
/// error that slipped past the partial verification at p1 is next
/// screened at next(p1) -- one table-driven step, no expm1 (see
/// analysis::SegmentRows).
[[gnu::always_inline]] inline void partial_right_step(
    const PartialScan& s, std::size_t p1, std::size_t lo, std::size_t active,
    std::size_t lane_stride, const PartialLanes& st) {
  const std::size_t row = p1 * s.stride;
  const std::int32_t* next = st.next + (p1 - lo) * lane_stride;
  double* er = st.er + (p1 - lo) * lane_stride;
  for (std::size_t k = 0; k < active; ++k) {
    const auto p2 = static_cast<std::size_t>(next[k]);
    er[k] = s.pf[row + p2] * (s.tl[row + p2] + s.k1) +
            (s.w[row + p2] + s.vp[p2] + s.rm_hit +
             s.g * st.er[(p2 - lo) * lane_stride + k]) /
                s.ef[row + p2];
  }
}

/// The closing v1 fold: E_verif(v1) + E_partial(v1) over v1 in [lo, hi),
/// ascending and strict-less, into (best, best_arg).  E_partial(v1) is
/// lane v1 - lo's value on its own last row, the state's diagonal.
[[gnu::always_inline]] inline void partial_fold(
    const double* everif_row, std::size_t lo, std::size_t hi,
    std::size_t lane_stride, const double* ep, double& best,
    std::int32_t& best_arg) {
  // Folded in locals: `best` could alias the state buffers, which would
  // force a store per improvement.
  double fold = best;
  std::int32_t fold_arg = best_arg;
  for (std::size_t v1 = lo; v1 < hi; ++v1) {
    const double candidate =
        everif_row[v1] + ep[(v1 - lo) * (lane_stride + 1)];
    if (candidate < fold) {
      fold = candidate;
      fold_arg = static_cast<std::int32_t>(v1);
    }
  }
  best = fold;
  best_arg = fold_arg;
}

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

  /// affine on kGroupRows rows: row r is ev_rows + r * ev_stride, with
  /// its own k1[r], k2[r] and (best[r], best_arg[r]).
  [[gnu::always_inline]] static inline void affine_rows(
      const double* ev_rows, std::size_t ev_stride, const double* exvg,
      const double* b, const double* c, const double* d, const double* k1,
      const double* k2, std::size_t lo, std::size_t hi, double* best,
      std::int32_t* best_arg) {
    for (std::size_t r = 0; r < kGroupRows; ++r) {
      affine(ev_rows + r * ev_stride, exvg, b, c, d, k1[r], k2[r], lo, hi,
             best[r], best_arg[r]);
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

  /// The partial scan (PartialScan) over v1 in [lo, hi) at one lane:
  /// per hop row p1, descending, every v1 <= p1 takes one step.
  [[gnu::always_inline]] static inline void partial(
      const PartialScan& s, const double* everif_row, std::size_t lo,
      std::size_t hi, const PartialLanes& st, double& best,
      std::int32_t& best_arg) {
    const std::size_t len = hi - lo;
    const std::size_t lane_stride = partial_lane_stride(len);
    double* er_end = st.er + len * lane_stride;
    for (std::size_t k = 0; k < len; ++k) er_end[k] = s.r_mem;
    for (std::size_t p1 = hi; p1-- > lo;) {
      const double t0 = detail::partial_row(s, p1, hi, st);
      const double c0 = s.c_to_j[p1];
      const std::size_t active = p1 - lo + 1;
      for (std::size_t k = 0; k < active; ++k) {
        const double ev = everif_row[lo + k];
        double lane_best = t0 + c0 * ev;
        auto lane_arg = static_cast<std::int32_t>(hi);
        for (std::size_t p2 = p1 + 1; p2 < hi; ++p2) {
          const std::size_t at = (p2 - lo) * lane_stride + k;
          const double candidate =
              st.pp[p2] + st.qq[p2] * ev + st.rr[p2] * st.er[at] + st.ep[at];
          if (candidate < lane_best) {
            lane_best = candidate;
            lane_arg = static_cast<std::int32_t>(p2);
          }
        }
        st.ep[(p1 - lo) * lane_stride + k] = lane_best;
        st.next[(p1 - lo) * lane_stride + k] = lane_arg;
      }
      detail::partial_right_step(s, p1, lo, active, lane_stride, st);
    }
    detail::partial_fold(everif_row, lo, hi, lane_stride, st.ep, best,
                         best_arg);
  }
};

/// The five shapes over W double lanes (defined in argmin_vector.hpp,
/// out of line in the per-ISA translation units).
template <int W>
struct VectorKernels {
  static void affine(const double* ev_row, const double* exvg,
                     const double* b, const double* c, const double* d,
                     double k1, double k2, std::size_t lo, std::size_t hi,
                     double& best, std::int32_t& best_arg) noexcept;
  static void affine_rows(const double* ev_rows, std::size_t ev_stride,
                          const double* exvg, const double* b,
                          const double* c, const double* d, const double* k1,
                          const double* k2, std::size_t lo, std::size_t hi,
                          double* best, std::int32_t* best_arg) noexcept;
  static void sum(const double* a, const double* c, std::size_t lo,
                  std::size_t hi, double& best,
                  std::int32_t& best_arg) noexcept;
  static void fold(const double* row, double base, std::int32_t arg,
                   double* run_best, std::int32_t* run_arg, std::size_t lo,
                   std::size_t hi) noexcept;
  static void partial(const PartialScan& s, const double* everif_row,
                      std::size_t lo, std::size_t hi, const PartialLanes& st,
                      double& best, std::int32_t& best_arg) noexcept;
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
