#include "analysis/segment_tables.hpp"

#include <cmath>

#include "analysis/segment_math.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace chainckpt::analysis {

namespace {

/// One interval's coefficients, as both orientations store them.  The
/// e_right_step ingredients (ef, pf, tl) are filled only for the row
/// table.
struct IntervalCoeffs {
  double w = 0.0;
  double x = 0.0;  ///< (e^{lf W} - 1)/lf, or its law integral
  double es = 0.0;
  double b = 0.0;
  double c = 0.0;
  double d = 0.0;
  double fs = 0.0;
  double ef = 0.0;
  double pf = 0.0;
  double tl = 0.0;
};

/// The coefficients both laws derive the same way from (w, em1_f, em1_s).
void set_shared(IntervalCoeffs& k, const Interval& seg) noexcept {
  k.w = seg.w;
  k.es = seg.exp_s();
  k.b = k.es * seg.em1_f;
  k.c = seg.em1_fs();
  k.d = seg.em1_s;
  k.fs = seg.exp_fs();
}

/// Calls visit(i, j, coeffs) for every interval 0 <= i <= j <= n.  Rows i
/// are independent, so they run as util::parallel_for_rows blocks; within
/// a row j ascends.  This is the one place each planning law's expression
/// trees live: the same trees as segment_math.cpp (make_interval,
/// make_law_interval), so the stored coefficients are bitwise what the
/// scalar path computes -- for the column and the row table alike, at any
/// thread count.
///
/// Law dispatch: a Weibull law at shape exactly 1 *delegates* to the
/// exponential walk, which makes the k = 1 reduction bitwise (the raw
/// Weibull formulas are only equal up to association order: they sum
/// per-task hazards where the exponential path multiplies lambda_f by a
/// prefix-difference weight).
template <bool kStepTerms, typename Visit>
void for_each_interval(const chain::TaskChain& chain,
                       const platform::CostModel& costs, Visit&& visit) {
  const std::size_t n = chain.size();
  const double lambda_f = costs.lambda_f();
  const double lambda_s = costs.lambda_s();
  const platform::PlanningLaw& law = costs.planning_law();
  if (law.is_exponential()) {
    // Paper Eq. (4) coefficients.
    util::parallel_for_rows(n + 1, [&](std::size_t i) {
      IntervalCoeffs k;
      for (std::size_t j = i; j <= n; ++j) {
        const Interval seg = make_interval(chain, costs, i, j);
        set_shared(k, seg);
        k.x = em1f_over_lambda(seg, lambda_f);
        if constexpr (kStepTerms) {
          k.ef = seg.exp_f();
          k.pf = seg.em1_f / k.ef;
          // expected_time_lost dominates the row-build cost.
          k.tl = util::expected_time_lost(lambda_f, seg.w);
        }
        visit(i, j, k);
      }
    });
    return;
  }
  // Law-integrated coefficients (platform::FailureLaw::kWeibull):
  // em1_f/x/tl/pf/ef/fs replaced by their renewal-law integrals -- see the
  // LawInterval block of segment_math.hpp.
  const WeibullLawTasks tasks(chain, costs);
  util::parallel_for_rows(n + 1, [&](std::size_t i) {
    // Incremental law accumulators over j, in the exact operation order of
    // make_law_interval so evaluator-side LawInterval values are bitwise
    // equal to the stored streams.
    IntervalCoeffs k;
    double hazard = 0.0;
    double lambda_acc = 0.0;
    for (std::size_t j = i; j <= n; ++j) {
      if (j > i) {
        const double survive_prefix = std::exp(-hazard);
        lambda_acc +=
            survive_prefix * (tasks.p_fail(j) * chain.weight_between(i, j - 1) +
                              tasks.elapsed_when_failed(j));
        hazard += tasks.rho(j);
      }
      const double w = chain.weight_between(i, j);
      const Interval seg{w, std::expm1(hazard), std::expm1(lambda_s * w)};
      set_shared(k, seg);
      k.ef = seg.exp_f();
      k.x = lambda_acc * k.ef + seg.w;
      if constexpr (kStepTerms) {
        k.pf = seg.em1_f / k.ef;
        k.tl = k.pf > 0.0 ? lambda_acc / k.pf : 0.5 * seg.w;
      }
      visit(i, j, k);
    }
  });
}

}  // namespace

SegmentTables::SegmentTables(const chain::TaskChain& chain,
                             const platform::CostModel& costs)
    : n_(chain.size()) {
  const std::size_t stride = n_ + 1;
  const std::size_t cells = stride * stride;
  vg_.assign(stride, 0.0);
  for (std::size_t i = 1; i <= n_; ++i) vg_[i] = costs.v_guaranteed_after(i);
  for (auto* v : {&exvg_c_, &b_c_, &c_c_, &d_c_, &fs_c_}) {
    v->assign(cells, 0.0);
  }
  for_each_interval<false>(
      chain, costs,
      [&](std::size_t i, std::size_t j, const IntervalCoeffs& k) {
        const std::size_t cm = j * stride + i;
        exvg_c_[cm] = k.es * (k.x + vg_[j]);
        b_c_[cm] = k.b;
        c_c_[cm] = k.c;
        d_c_[cm] = k.d;
        fs_c_[cm] = k.fs;
      });
}

std::size_t SegmentTables::resident_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto* v : {&exvg_c_, &b_c_, &c_c_, &d_c_, &fs_c_, &vg_}) {
    total += v->capacity() * sizeof(double);
  }
  return total;
}

SegmentRows::SegmentRows(const chain::TaskChain& chain,
                         const platform::CostModel& costs)
    : n_(chain.size()) {
  const std::size_t stride = n_ + 1;
  const std::size_t cells = stride * stride;
  vp_.assign(stride, 0.0);
  for (std::size_t i = 1; i <= n_; ++i) vp_[i] = costs.v_partial_after(i);
  for (auto* v : {&exv_, &b_, &c_, &d_, &tl_, &pf_, &ef_, &w_}) {
    v->assign(cells, 0.0);
  }
  for_each_interval<true>(
      chain, costs,
      [&](std::size_t i, std::size_t j, const IntervalCoeffs& k) {
        const std::size_t rm = i * stride + j;
        exv_[rm] = k.es * (k.x + vp_[j]);
        b_[rm] = k.b;
        c_[rm] = k.c;
        d_[rm] = k.d;
        tl_[rm] = k.tl;
        pf_[rm] = k.pf;
        ef_[rm] = k.ef;
        w_[rm] = k.w;
      });
}

}  // namespace chainckpt::analysis
