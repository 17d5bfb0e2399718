// The four argmin fold shapes of argmin_kernels.hpp over W double lanes,
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
// did.  So the scalar tails are always_inline, +inf is a constexpr
// constant, every helper here has internal linkage, and the only
// external symbols are VectorKernels<W> members, which no baseline file
// defines.  CI's sanitize job checks the two objects with nm.
//
// Min+index: each lane keeps a running (value, index) pair, replaced only
// by a strictly smaller candidate, so each lane holds the EARLIEST index
// of its own minimum; merge_lanes then takes the lowest value, ties to the
// lowest index.  Together that is the scalar leftmost strict-less argmin.
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

/// The min+index loop of affine, sum and partial: folds cand(i), the
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
void VectorKernels<W>::partial(const double* pp, const double* qq,
                               const double* rr, const double* er,
                               const double* ep, double ev, std::size_t lo,
                               std::size_t hi, double& best,
                               std::int32_t& best_arg) noexcept {
  using Doubles = typename Lanes<W>::Doubles;
  const std::size_t tail =
      argmin_lanes<W>(lo, hi, best, best_arg, [&](std::size_t i) {
        // ((pp + qq*ev) + rr*er) + ep -- the scalar order.
        return load<Doubles>(pp + i) + load<Doubles>(qq + i) * ev +
               load<Doubles>(rr + i) * load<Doubles>(er + i) +
               load<Doubles>(ep + i);
      });
  ScalarKernels::partial(pp, qq, rr, er, ep, ev, tail, hi, best, best_arg);
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
