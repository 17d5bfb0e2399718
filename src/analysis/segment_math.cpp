#include "analysis/segment_math.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace chainckpt::analysis {

Interval make_interval(const chain::TaskChain& chain,
                       const platform::CostModel& costs, std::size_t i,
                       std::size_t j) {
  const double w = chain.weight_between(i, j);
  return Interval{w, std::expm1(costs.lambda_f() * w),
                  std::expm1(costs.lambda_s() * w)};
}

double em1f_over_lambda(const Interval& seg, double lambda_f) noexcept {
  // (e^{lf W} - 1)/lf == W * expm1(x)/x with x = lf * W; the series form
  // keeps full precision as lf -> 0 where em1_f/lambda_f would be 0/0.
  const double x = lambda_f * seg.w;
  if (x < 1e-5) return seg.w * util::expm1_over_x(x);
  return seg.em1_f / lambda_f;
}

double expected_verified_segment(const Interval& seg, double lambda_f,
                                 double v_guaranteed,
                                 const LeftContext& left) noexcept {
  const double es = seg.exp_s();
  return es * (em1f_over_lambda(seg, lambda_f) + v_guaranteed) +
         es * seg.em1_f * (left.r_disk + left.e_mem) +
         seg.em1_fs() * left.e_verif + seg.em1_s * left.r_mem;
}

double e_minus_segment(const Interval& seg, double lambda_f, double v_partial,
                       double miss, const LeftContext& left,
                       double e_right_next) noexcept {
  const double es = seg.exp_s();
  return es * (em1f_over_lambda(seg, lambda_f) + v_partial) +
         es * seg.em1_f * (left.r_disk + left.e_mem) +
         seg.em1_fs() * left.e_verif +
         seg.em1_s * ((1.0 - miss) * left.r_mem + miss * e_right_next);
}

double e_right_step(const Interval& seg, double lambda_f, double v_partial,
                    double miss, double r_disk, double r_mem, double e_mem,
                    double e_right_next) noexcept {
  // p^f (T_lost + R_D + E_mem) + (1 - p^f)(W + V + (1-g) R_M + g E_right').
  // p^f = 1 - e^{-lf W} = em1_f / e^{lf W}; 1 - p^f = 1 / e^{lf W}.
  const double ef = seg.exp_f();
  const double p_fail = seg.em1_f / ef;
  const double t_lost = util::expected_time_lost(lambda_f, seg.w);
  return p_fail * (t_lost + r_disk + e_mem) +
         (seg.w + v_partial + (1.0 - miss) * r_mem + miss * e_right_next) /
             ef;
}

double e_partial_terminal(const Interval& seg, double lambda_f,
                          double v_partial, double v_guaranteed, double miss,
                          const LeftContext& left) noexcept {
  // E^-(..., p1, v2, v2) with E_right(..., v2, v2) = R_M, plus the
  // verification-cost upgrade e^{(ls+lf) W} (V* - V).
  const double base = e_minus_segment(seg, lambda_f, v_partial, miss, left,
                                      /*e_right_next=*/left.r_mem);
  return base + seg.exp_fs() * (v_guaranteed - v_partial);
}

// --- Law-integrated generalization (see header) ---------------------------

WeibullLawTasks::WeibullLawTasks(const chain::TaskChain& chain,
                                 const platform::CostModel& costs)
    : shape_(costs.planning_law().weibull_shape) {
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

LawInterval make_law_interval(const chain::TaskChain& chain,
                              const platform::CostModel& costs,
                              const WeibullLawTasks& tasks, std::size_t i,
                              std::size_t j) {
  CHAINCKPT_ASSERT(i <= j && j <= tasks.n(), "interval indices out of order");
  // Left-to-right accumulation keeps every Lambda summand non-negative --
  // no cancellation, unlike the algebraically equal (M - qW)/(1 - q) form.
  double hazard = 0.0;
  double lambda_acc = 0.0;
  for (std::size_t t = i + 1; t <= j; ++t) {
    const double survive_prefix = std::exp(-hazard);
    lambda_acc +=
        survive_prefix * (tasks.p_fail(t) * chain.weight_between(i, t - 1) +
                          tasks.elapsed_when_failed(t));
    hazard += tasks.rho(t);
  }
  LawInterval seg;
  seg.w = chain.weight_between(i, j);
  seg.em1_f = std::expm1(hazard);
  seg.em1_s = std::expm1(costs.lambda_s() * seg.w);
  const double ef = 1.0 + seg.em1_f;
  seg.x = lambda_acc * ef + seg.w;
  const double p_fail = seg.em1_f / ef;
  // Hazard-free limit of E[elapsed | fail] is w/2, matching Eq. (3) as
  // lambda -> 0; the value is only ever multiplied by p_fail = 0 there.
  seg.t_lost = p_fail > 0.0 ? lambda_acc / p_fail : 0.5 * seg.w;
  return seg;
}

double expected_verified_segment(const LawInterval& seg, double v_guaranteed,
                                 const LeftContext& left) noexcept {
  const double es = seg.exp_s();
  return es * (seg.x + v_guaranteed) +
         es * seg.em1_f * (left.r_disk + left.e_mem) +
         seg.em1_fs() * left.e_verif + seg.em1_s * left.r_mem;
}

double e_minus_segment(const LawInterval& seg, double v_partial, double miss,
                       const LeftContext& left,
                       double e_right_next) noexcept {
  const double es = seg.exp_s();
  return es * (seg.x + v_partial) +
         es * seg.em1_f * (left.r_disk + left.e_mem) +
         seg.em1_fs() * left.e_verif +
         seg.em1_s * ((1.0 - miss) * left.r_mem + miss * e_right_next);
}

double e_right_step(const LawInterval& seg, double v_partial, double miss,
                    double r_disk, double r_mem, double e_mem,
                    double e_right_next) noexcept {
  const double ef = seg.exp_f();
  const double p_fail = seg.em1_f / ef;
  return p_fail * (seg.t_lost + r_disk + e_mem) +
         (seg.w + v_partial + (1.0 - miss) * r_mem + miss * e_right_next) /
             ef;
}

double e_partial_terminal(const LawInterval& seg, double v_partial,
                          double v_guaranteed, double miss,
                          const LeftContext& left) noexcept {
  const double base = e_minus_segment(seg, v_partial, miss, left,
                                      /*e_right_next=*/left.r_mem);
  return base + seg.exp_fs() * (v_guaranteed - v_partial);
}

}  // namespace chainckpt::analysis
