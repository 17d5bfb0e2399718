// The five argmin fold shapes of argmin_kernels.hpp over W double lanes,
// written once with GCC vector types.  Included only by argmin_avx2.cpp
// (W = 4) and argmin_avx512.cpp (W = 8); each is compiled with its own -m
// flags, which decide whether this source lowers to 256- or 512-bit code.
//
// Vague-linkage rule: an ISA translation unit may define nothing with
// vague linkage (an inline function, a template instantiation, a static
// local of either) that a baseline translation unit also defines.  The
// linker keeps one copy of such a symbol from whichever object it meets
// first, so an AVX-encoded copy would stand in for the baseline one in
// code that must run on any x86-64 CPU -- at -O0, where nothing is
// inlined, ScalarKernels::partial and numeric_limits<double>::infinity()
// did.  So the scalar tails and the partial helpers of argmin_kernels.hpp
// are always_inline, +inf is a constexpr constant, every helper here has
// internal linkage, and the only external symbols are VectorKernels<W>
// members, which no baseline file defines.  CI's sanitize job checks the
// two objects with nm.
//
// Min+index (affine, affine_rows, sum): each lane keeps a running (value,
// index) pair, replaced only by a strictly smaller candidate, so each lane
// holds the EARLIEST index of its own minimum; merge_lanes then takes the
// lowest value, ties to the lowest index.  Together that is the scalar
// leftmost strict-less argmin.  affine_rows keeps one such pair per row.
// partial needs no merge: its lanes are separate v1 solves, each folding
// its own hops exactly as the scalar loop does.
#pragma once

#include <cstring>
#include <limits>

#include "core/simd/argmin_kernels.hpp"

namespace chainckpt::core::simd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Lane offsets, loaded as one vector: building the index vector from
/// per-element stores re-loads it through a store-forwarding stall.
alignas(64) constexpr long long kIota[8] = {0, 1, 2, 3, 4, 5, 6, 7};

/// Typedefs in a class template: an alias template would drop the
/// dependent vector_size attribute and leave plain scalars.
template <int W>
struct Lanes {
  typedef double Doubles __attribute__((vector_size(8 * W)));
  typedef long long Indices __attribute__((vector_size(8 * W)));
  typedef std::int32_t Args __attribute__((vector_size(4 * W)));
};

template <typename V, typename T>
inline V load(const T* p) {
  V v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename V, typename T>
inline void store(T* p, const V& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Folds W lane-local (value, first-index) pairs into (best, best_arg):
/// lowest value wins, ties by lowest index, and the incoming seed is only
/// displaced by a strictly smaller value -- the scalar fold's semantics.
template <int W>
inline void merge_lanes(const typename Lanes<W>::Doubles& vbest,
                        const typename Lanes<W>::Indices& vidx, double& best,
                        std::int32_t& best_arg) {
  double m = vbest[0];
  long long mi = vidx[0];
  for (int l = 1; l < W; ++l) {
    if (vbest[l] < m || (vbest[l] == m && vidx[l] < mi)) {
      m = vbest[l];
      mi = vidx[l];
    }
  }
  if (m < best) {
    best = m;
    best_arg = static_cast<std::int32_t>(mi);
  }
}

/// The min+index loop of affine and sum: folds cand(i), the
/// candidates at i .. i + W - 1, for every whole vector in [lo, hi) into
/// (best, best_arg) and returns where the scalar tail starts.  Windows
/// shorter than two vectors run the scalar loop alone.
template <int W, typename Candidate>
inline std::size_t argmin_lanes(std::size_t lo, std::size_t hi, double& best,
                                std::int32_t& best_arg,
                                const Candidate& cand) {
  using Doubles = typename Lanes<W>::Doubles;
  using Indices = typename Lanes<W>::Indices;
  if (hi - lo < 2 * W) return lo;
  Doubles vbest = Doubles{} + kInf;
  Indices vidx = Indices{} - 1;
  Indices cur = static_cast<long long>(lo) + load<Indices>(kIota);
  std::size_t i = lo;
  for (; i + W <= hi; i += W) {
    const Doubles c = cand(i);
    const auto lt = c < vbest;
    vbest = lt ? c : vbest;
    vidx = lt ? cur : vidx;
    cur += W;
  }
  merge_lanes<W>(vbest, vidx, best, best_arg);
  return i;
}

}  // namespace

template <int W>
void VectorKernels<W>::affine(const double* ev_row, const double* exvg,
                              const double* b, const double* c,
                              const double* d, double k1, double k2,
                              std::size_t lo, std::size_t hi, double& best,
                              std::int32_t& best_arg) noexcept {
  using Doubles = typename Lanes<W>::Doubles;
  const std::size_t tail =
      argmin_lanes<W>(lo, hi, best, best_arg, [&](std::size_t i) {
        const Doubles ev = load<Doubles>(ev_row + i);
        // ((exvg + b*k1) + c*ev) + d*k2, then ev + ... -- the scalar order.
        return ev + (load<Doubles>(exvg + i) + load<Doubles>(b + i) * k1 +
                     load<Doubles>(c + i) * ev + load<Doubles>(d + i) * k2);
      });
  ScalarKernels::affine(ev_row, exvg, b, c, d, k1, k2, tail, hi, best,
                        best_arg);
}

template <int W>
void VectorKernels<W>::affine_rows(const double* ev_rows,
                                   std::size_t ev_stride, const double* exvg,
                                   const double* b, const double* c,
                                   const double* d, const double* k1,
                                   const double* k2, std::size_t lo,
                                   std::size_t hi, double* best,
                                   std::int32_t* best_arg) noexcept {
  using Doubles = typename Lanes<W>::Doubles;
  using Indices = typename Lanes<W>::Indices;
  constexpr std::size_t R = kGroupRows;
  std::size_t i = lo;
  if (hi - lo >= 2 * W) {
    Doubles vbest[R];
    Indices vidx[R];
    for (std::size_t r = 0; r < R; ++r) {
      vbest[r] = Doubles{} + kInf;
      vidx[r] = Indices{} - 1;
    }
    Indices cur = static_cast<long long>(lo) + load<Indices>(kIota);
    for (; i + W <= hi; i += W) {
      // Column j's coefficients, loaded once for every row of the group.
      const Doubles vexvg = load<Doubles>(exvg + i);
      const Doubles vb = load<Doubles>(b + i);
      const Doubles vc = load<Doubles>(c + i);
      const Doubles vd = load<Doubles>(d + i);
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; ++r) {
        const Doubles ev = load<Doubles>(ev_rows + r * ev_stride + i);
        // ((exvg + b*k1) + c*ev) + d*k2, then ev + ... -- the scalar order.
        const Doubles cand = ev + (vexvg + vb * k1[r] + vc * ev + vd * k2[r]);
        const auto lt = cand < vbest[r];
        vbest[r] = lt ? cand : vbest[r];
        vidx[r] = lt ? cur : vidx[r];
      }
      cur += W;
    }
    for (std::size_t r = 0; r < R; ++r) {
      merge_lanes<W>(vbest[r], vidx[r], best[r], best_arg[r]);
    }
  }
  ScalarKernels::affine_rows(ev_rows, ev_stride, exvg, b, c, d, k1, k2, i,
                             hi, best, best_arg);
}

template <int W>
void VectorKernels<W>::sum(const double* a, const double* c, std::size_t lo,
                           std::size_t hi, double& best,
                           std::int32_t& best_arg) noexcept {
  using Doubles = typename Lanes<W>::Doubles;
  const std::size_t tail =
      argmin_lanes<W>(lo, hi, best, best_arg, [&](std::size_t i) {
        return load<Doubles>(a + i) + load<Doubles>(c + i);
      });
  ScalarKernels::sum(a, c, tail, hi, best, best_arg);
}

template <int W>
void VectorKernels<W>::partial(const PartialScan& s, const double* everif_row,
                               std::size_t lo, std::size_t hi,
                               const PartialLanes& st, double& best,
                               std::int32_t& best_arg) noexcept {
  using Doubles = typename Lanes<W>::Doubles;
  using Indices = typename Lanes<W>::Indices;
  using Args = typename Lanes<W>::Args;
  static_assert(kMaxLanes % W == 0, "lane groups must tile the stride");
  const std::size_t len = hi - lo;
  const std::size_t lane_stride = partial_lane_stride(len);
  // E_verif by lane; padded lanes (v1 >= hi) get 0 and are never folded.
  for (std::size_t k = 0; k < lane_stride; ++k) {
    st.ev[k] = k < len ? everif_row[lo + k] : 0.0;
  }
  double* er_end = st.er + len * lane_stride;
  for (std::size_t k = 0; k < len; ++k) er_end[k] = s.r_mem;
  for (std::size_t p1 = hi; p1-- > lo;) {
    const double t0 = detail::partial_row(s, p1, hi, st);
    const double c0 = s.c_to_j[p1];
    const std::size_t active = p1 - lo + 1;
    double* ep_row = st.ep + (p1 - lo) * lane_stride;
    std::int32_t* next_row = st.next + (p1 - lo) * lane_stride;
    // W adjacent v1 per vector; lanes past p1 step too, on values no
    // active lane reads.
    for (std::size_t k = 0; k < active; k += W) {
      const Doubles ev = load<Doubles>(st.ev + k);
      Doubles vbest = t0 + c0 * ev;  // the terminal choice p2 = hi
      Indices varg = Indices{} + static_cast<long long>(hi);
      Indices cur = Indices{} + static_cast<long long>(p1 + 1);
      const double* er = st.er + (p1 + 1 - lo) * lane_stride + k;
      const double* ep = st.ep + (p1 + 1 - lo) * lane_stride + k;
      for (std::size_t p2 = p1 + 1; p2 < hi; ++p2) {
        // ((pp + qq*ev) + rr*er) + ep -- the scalar order.
        const Doubles candidate = st.pp[p2] + st.qq[p2] * ev +
                                  st.rr[p2] * load<Doubles>(er) +
                                  load<Doubles>(ep);
        const auto lt = candidate < vbest;
        vbest = lt ? candidate : vbest;
        varg = lt ? cur : varg;
        cur += 1;
        er += lane_stride;
        ep += lane_stride;
      }
      store(ep_row + k, vbest);
      store(next_row + k, __builtin_convertvector(varg, Args));
    }
    detail::partial_right_step(s, p1, lo, active, lane_stride, st);
  }
  detail::partial_fold(everif_row, lo, hi, lane_stride, st.ep, best,
                       best_arg);
}

template <int W>
void VectorKernels<W>::fold(const double* row, double base, std::int32_t arg,
                            double* run_best, std::int32_t* run_arg,
                            std::size_t lo, std::size_t hi) noexcept {
  using Doubles = typename Lanes<W>::Doubles;
  using Args = typename Lanes<W>::Args;
  std::size_t i = lo;
  if (hi - lo >= 2 * W) {
    const Args varg = Args{} + arg;
    for (; i + W <= hi; i += W) {
      const Doubles cand = base + load<Doubles>(row + i);
      const Doubles rb = load<Doubles>(run_best + i);
      const auto lt = cand < rb;
      store(run_best + i, lt ? cand : rb);
      // Narrow the 64-bit lane mask to the 32-bit argmin lanes.
      const Args lt32 = __builtin_convertvector(lt, Args);
      store(run_arg + i, lt32 ? varg : load<Args>(run_arg + i));
    }
  }
  ScalarKernels::fold(row, base, arg, run_best, run_arg, i, hi);
}

}  // namespace chainckpt::core::simd
