// Hoisted interval algebra for the DP hot paths.
//
// The closed forms of segment_math.cpp all decompose over an interval
// (i, j] into coefficient fields that are independent of the DP's left
// context (d1, m1):
//
//   expected_verified_segment = es*(x + V*) + b*(R_D + E_mem)
//                               + c*E_verif + d*R_M
//   e_minus_segment           = es*(x + V)  + b*(R_D + E_mem)
//                               + c*E_verif + d*((1-g) R_M + g E_right')
//   e_right_step              = pf*(tl + R_D + E_mem)
//                               + (W + V + (1-g) R_M + g E_right') / ef
//
// with  x  = (e^{lf W} - 1)/lf      es = e^{ls W}
//       b  = es * (e^{lf W} - 1)    c  = e^{(lf+ls) W} - 1
//       d  = e^{ls W} - 1           fs = e^{(lf+ls) W}
//       ef = e^{lf W}               pf = (e^{lf W} - 1) / ef
//       tl = T_lost (Eq. 3)
//
// (or their law integrals under a non-exponential planning law).  The
// O(n^4)/O(n^6) dynamic programs used to rebuild Interval/LeftContext
// structs and re-derive these quantities -- including an expm1 per
// e_right_step -- inside their innermost loops; this table materializes
// them once per (chain, cost model) pair as flat SoA arrays.  The
// verification costs are folded into the leading term where possible
// (exv = es*(x + V_j), exvg = es*(x + V*_j)), which drops two more streams
// from the kernels.  Two orientations exist:
//
//   SegmentTables, *_col(j): fixed right endpoint j, contiguous in i --
//             the access pattern of the level-DP v1 scans, read by every
//             DP and shared across jobs by core::BatchSolver;
//   SegmentRows, *_row(i): fixed left endpoint i, contiguous in j -- the
//             access pattern of the partial-verification inner DP (p2
//             scan), which only ADMV runs and builds per solve.
//
// Both fills walk the rows of one analysis::IntervalSource
// (segment_math.hpp), the source the evaluator asks for a plan's
// intervals, and store the coefficients above as expressions on its
// Interval values: every cell is bitwise what the scalar formulas read, at
// any thread count, and only the row fill asks the source for T_lost.  The
// Eq. (4) level-DP kernels (dp_two_level, dp_single_level) consume them
// with the scalar formulas' association order and reproduce those values
// bit for bit; the ADMV kernels (dp_partial) additionally distribute the e^{(lf+ls)W}
// chain factor across each hop row's coefficients, which reassociates
// sums of non-negative terms and may differ from the scalar path by a few
// ulps -- well inside the 1e-9 tolerance of the "DP objective == analytic
// evaluator" property tests.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "chain/chain.hpp"
#include "platform/cost_model.hpp"

namespace chainckpt::analysis {

/// Layout: each of the five streams is a packed triangle -- column j
/// holds i in [0, j] from offset j(j+1)/2 -- because the level DPs read an
/// interval's coefficients only for v1 <= j.  The five streams, then vg,
/// share one uninitialized heap block that the fill writes cell by cell,
/// each stored cell exactly once, so there is no zero-fill pass.
class SegmentTables {
 public:
  SegmentTables(const chain::TaskChain& chain,
                const platform::CostModel& costs);

  std::size_t n() const noexcept { return n_; }

  // Column views: pointer indexed by the absolute left endpoint i, valid
  // for i in [0, j].
  const double* exvg_col(std::size_t j) const noexcept {
    return col(kExvg, j);
  }
  const double* b_col(std::size_t j) const noexcept { return col(kB, j); }
  const double* c_col(std::size_t j) const noexcept { return col(kC, j); }
  const double* d_col(std::size_t j) const noexcept { return col(kD, j); }
  const double* fs_col(std::size_t j) const noexcept { return col(kFs, j); }

  /// Guaranteed-verification cost after task i (i >= 1), hoisted out of the
  /// CostModel's uniform/per-position branch.
  double vg_after(std::size_t i) const noexcept {
    return block_[kStreams * cells_ + i];
  }

  /// Bytes of the block -- what a BatchSolver cache entry keeps resident
  /// and release_scratch() gives back.
  std::size_t resident_bytes() const noexcept {
    return (kStreams * cells_ + n_ + 1) * sizeof(double);
  }

 private:
  enum Stream : std::size_t { kExvg, kB, kC, kD, kFs, kStreams };

  const double* col(Stream s, std::size_t j) const noexcept {
    return block_.get() + s * cells_ + j * (j + 1) / 2;
  }

  std::size_t n_;
  std::size_t cells_;  ///< (n + 1)(n + 2) / 2, one stream's stored cells
  std::unique_ptr<double[]> block_;
};

/// The row-oriented streams of the ADMV inner DP (paper Section III-B):
/// E^- coefficients with the partial-verification cost folded in
/// (exv = es*(x + V_j)), the e_right_step ingredients (tl, pf, ef, w) and
/// the V stream.  Only core::optimize_with_partial reads them; it builds
/// one per solve from its context's chain and cost model (an O(n^2) pass
/// under an O(n^6) solve).  The fill walks the intervals with the
/// same expression trees as SegmentTables' column fill, so the b/c/d rows
/// equal the columns bit for bit.
class SegmentRows {
 public:
  SegmentRows(const chain::TaskChain& chain,
              const platform::CostModel& costs);

  // Row views: pointer indexed by the absolute right endpoint j, valid for
  // j in [i, n].
  const double* exv_row(std::size_t i) const noexcept { return row(exv_, i); }
  const double* b_row(std::size_t i) const noexcept { return row(b_, i); }
  const double* c_row(std::size_t i) const noexcept { return row(c_, i); }
  const double* d_row(std::size_t i) const noexcept { return row(d_, i); }
  const double* tl_row(std::size_t i) const noexcept { return row(tl_, i); }
  const double* pf_row(std::size_t i) const noexcept { return row(pf_, i); }
  const double* ef_row(std::size_t i) const noexcept { return row(ef_, i); }
  const double* w_row(std::size_t i) const noexcept { return row(w_, i); }

  /// Distance between consecutive rows of the *_row views (n + 1).
  std::size_t stride() const noexcept { return n_ + 1; }

  /// Partial-verification cost after task i (i >= 1).
  double vp_after(std::size_t i) const noexcept { return vp_[i]; }
  /// vp_after as a flat array indexed by position (entry 0 unused).
  const double* vp_data() const noexcept { return vp_.data(); }

 private:
  const double* row(const std::vector<double>& v,
                    std::size_t i) const noexcept {
    return v.data() + i * (n_ + 1);
  }

  std::size_t n_;
  std::vector<double> exv_, b_, c_, d_, tl_, pf_, ef_, w_;
  std::vector<double> vp_;
};

}  // namespace chainckpt::analysis
