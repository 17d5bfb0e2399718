#include "analysis/segment_math.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace chainckpt::analysis {

double expected_verified_segment(const Interval& seg, double v_guaranteed,
                                 const LeftContext& left) noexcept {
  const double es = seg.exp_s();
  return es * (seg.x + v_guaranteed) +
         es * seg.em1_f * (left.r_disk + left.e_mem) +
         seg.em1_fs() * left.e_verif + seg.em1_s * left.r_mem;
}

double e_minus_segment(const Interval& seg, double v_partial, double miss,
                       const LeftContext& left,
                       double e_right_next) noexcept {
  const double es = seg.exp_s();
  return es * (seg.x + v_partial) +
         es * seg.em1_f * (left.r_disk + left.e_mem) +
         seg.em1_fs() * left.e_verif +
         seg.em1_s * ((1.0 - miss) * left.r_mem + miss * e_right_next);
}

double e_right_step(const Interval& seg, double v_partial, double miss,
                    double r_disk, double r_mem, double e_mem,
                    double e_right_next) noexcept {
  // p^f (T_lost + R_D + E_mem) + (1 - p^f)(W + V + (1-g) R_M + g E_right'),
  // with 1 - p^f = 1 / e^{lf W}.
  return seg.p_fail() * (seg.t_lost + r_disk + e_mem) +
         (seg.w + v_partial + (1.0 - miss) * r_mem + miss * e_right_next) /
             seg.exp_f();
}

double e_partial_terminal(const Interval& seg, double v_partial,
                          double v_guaranteed, double miss,
                          const LeftContext& left) noexcept {
  // E^-(..., p1, v2, v2) with E_right(..., v2, v2) = R_M, plus the
  // verification-cost upgrade e^{(ls+lf) W} (V* - V).
  const double base = e_minus_segment(seg, v_partial, miss, left,
                                      /*e_right_next=*/left.r_mem);
  return base + seg.exp_fs() * (v_guaranteed - v_partial);
}

// --- Law-integrated generalization (see header) ---------------------------

WeibullLawTasks::WeibullLawTasks(const chain::TaskChain& chain,
                                 const platform::CostModel& costs)
    : chain_(chain),
      lambda_s_(costs.lambda_s()),
      shape_(costs.planning_law().weibull_shape) {
  CHAINCKPT_REQUIRE(shape_ > 0.0, "Weibull shape must be positive");
  const std::size_t n = chain.size();
  const double lambda_f = costs.lambda_f();
  rho_.assign(n + 1, 0.0);
  p_fail_.assign(n + 1, 0.0);
  elapsed_failed_.assign(n + 1, 0.0);
  if (lambda_f <= 0.0) return;  // failure-free: all hazards stay zero
  // Mean-matched scale: theta Gamma(1 + 1/k) = 1/lambda_f, so one attempt's
  // MTTF equals the exponential law's.
  const double a = 1.0 + 1.0 / shape_;
  const double theta = 1.0 / (lambda_f * std::tgamma(a));
  for (std::size_t t = 1; t <= n; ++t) {
    const double w = chain.weight_between(t - 1, t);
    if (w <= 0.0) continue;
    const double rho = std::pow(w / theta, shape_);
    rho_[t] = rho;
    p_fail_[t] = util::one_minus_exp_neg(rho);
    // E[T 1{T < w}] = theta Gamma(a) P(a, rho) = P(a, rho) / lambda_f.
    double elapsed = util::incomplete_gamma_p(a, rho) / lambda_f;
    if (!(elapsed >= 0.0) || !(elapsed <= w)) {
      // Closed form misbehaved (it should not, for a in (1, inf)): fall
      // back to the fixed-node quadrature oracle.
      elapsed = util::weibull_elapsed_quadrature(shape_, theta, w);
    }
    elapsed_failed_[t] = elapsed;
  }
}

Interval WeibullLawTasks::interval(std::size_t i, std::size_t j,
                                   double hazard, double lambda_acc,
                                   bool with_t_lost) const {
  Interval seg;
  seg.w = chain_.weight_between(i, j);
  seg.em1_f = std::expm1(hazard);
  seg.em1_s = std::expm1(lambda_s_ * seg.w);
  seg.x = lambda_acc * seg.exp_f() + seg.w;
  if (with_t_lost) {
    // Hazard-free limit of E[elapsed | fail] is w/2, matching Eq. (3) as
    // lambda -> 0; the value is only ever multiplied by p_fail = 0 there.
    const double p_fail = seg.p_fail();
    seg.t_lost = p_fail > 0.0 ? lambda_acc / p_fail : 0.5 * seg.w;
  }
  return seg;
}

// --- The one interval source ----------------------------------------------

IntervalSource::IntervalSource(const chain::TaskChain& chain,
                               const platform::CostModel& costs)
    : chain_(chain),
      lambda_f_(costs.lambda_f()),
      lambda_s_(costs.lambda_s()) {
  // Shape 1 takes the exponential path: the raw law integrals equal its
  // quantities only up to association order (they sum per-task hazards
  // where Eq. (4) multiplies lambda_f by a prefix-difference weight), and
  // delegation keeps a shape-1 solve bitwise equal to an exponential one.
  if (!costs.planning_law().is_exponential()) law_.emplace(chain, costs);
}

Interval IntervalSource::exponential(std::size_t i, std::size_t j,
                                     bool with_t_lost) const {
  Interval seg;
  seg.w = chain_.weight_between(i, j);
  seg.em1_f = std::expm1(lambda_f_ * seg.w);
  seg.em1_s = std::expm1(lambda_s_ * seg.w);
  // (e^{lf W} - 1)/lf == W * expm1(y)/y with y = lf * W; the series form
  // keeps full precision as lf -> 0 where em1_f/lambda_f would be 0/0.
  const double y = lambda_f_ * seg.w;
  seg.x = y < 1e-5 ? seg.w * util::expm1_over_x(y) : seg.em1_f / lambda_f_;
  if (with_t_lost) seg.t_lost = util::expected_time_lost(lambda_f_, seg.w);
  return seg;
}

}  // namespace chainckpt::analysis
