// Closed-form expected-time formulas of the paper (Section III), and the
// one source of the interval quantities they read.
//
// These are the only place in the library where the paper's equations are
// written down; the dynamic programs (src/core) and the analytic plan
// evaluator (src/analysis/evaluator) both call into here, so an algebra
// fix propagates everywhere and the "DP value == evaluator(reconstructed
// plan)" test is meaningful.
//
// Notation (paper Figures 1-4): positions are task indices, 0 = virtual T0.
//   d1 : last disk checkpoint        m1 : last memory checkpoint
//   v1 : last guaranteed verification
//   p1, p2 : consecutive partial verifications
//   v2 : next guaranteed verification
#pragma once

#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

#include "chain/chain.hpp"
#include "platform/cost_model.hpp"

namespace chainckpt::analysis {

/// Quantities of one interval of tasks T_{i+1}..T_j under the planning
/// law (see IntervalSource).  em1_x = e^{x W} - 1 is kept at full
/// precision: the closed forms multiply (e^{x W} - 1) by recovery costs,
/// and subtracting 1 from an exponential would lose most significant bits
/// in the realistic small-rate regime.
struct Interval {
  double w = 0.0;       ///< W_{i,j}
  double em1_f = 0.0;   ///< e^{lambda_f W} - 1, or e^{H} - 1 under a law
  double em1_s = 0.0;   ///< e^{lambda_s W} - 1 (silent errors, either law)
  double x = 0.0;       ///< (e^{lambda_f W} - 1)/lambda_f, or Lambda e^H + W
  /// Eq. (3)'s T_lost, or Lambda / p_fail under a law: set only where
  /// e_right_step reads it (IntervalSource::step_interval), else 0.
  double t_lost = 0.0;

  double exp_f() const noexcept { return 1.0 + em1_f; }
  double exp_s() const noexcept { return 1.0 + em1_s; }
  /// e^{(lambda_f + lambda_s) W} - 1, assembled without cancellation.
  double em1_fs() const noexcept {
    return em1_f + em1_s + em1_f * em1_s;
  }
  double exp_fs() const noexcept { return 1.0 + em1_fs(); }
  /// P(a fail-stop error strikes the interval) = em1_f / e^{lambda_f W}.
  double p_fail() const noexcept { return em1_f / exp_f(); }
};

/// Everything the formulas need to know about the segment's left context.
struct LeftContext {
  double r_disk = 0.0;   ///< R_D of the last disk checkpoint (0 for T0)
  double r_mem = 0.0;    ///< R_M of the last memory checkpoint (0 for T0)
  double e_mem = 0.0;    ///< E_mem(d1, m1): re-execute d1 -> m1
  double e_verif = 0.0;  ///< E_verif(d1, m1, v1): re-execute m1 -> v1
};

/// Paper Eq. (4): expected time to successfully execute the tasks between
/// two guaranteed verifications (interval (v1, v2]), including the cost
/// v_guaranteed of the verification at v2.
///
///   E = e^{ls W} (x + V*) + e^{ls W} (e^{lf W} - 1)(R_D + E_mem)
///     + (e^{(ls+lf) W} - 1) E_verif + (e^{ls W} - 1) R_M
double expected_verified_segment(const Interval& seg, double v_guaranteed,
                                 const LeftContext& left) noexcept;

/// Paper Section III-B, E^-(d1,m1,v1,p1,p2,v2): expected time for the
/// interval (p1, p2] between two partial verifications, with the
/// E_left(v1,p1) re-execution term removed (it is re-injected by the
/// e^{(ls+lf) W_{p2,v2}} multiplier inside E_partial).  `e_right_next` is
/// E_right(d1,m1,v1,p2,v2) and `miss` is g = 1 - recall.
double e_minus_segment(const Interval& seg, double v_partial, double miss,
                       const LeftContext& left,
                       double e_right_next) noexcept;

/// Paper Section III-B, one step of the E_right recursion: expected time
/// lost executing (p1, p2] while an undetected silent error is present,
/// where `e_right_next` is E_right at p2.  Initialization at p1 = v2 is
/// E_right = R_M (handled by the caller).  Reads seg.t_lost.
double e_right_step(const Interval& seg, double v_partial, double miss,
                    double r_disk, double r_mem, double e_mem,
                    double e_right_next) noexcept;

/// Terminal choice of the E_partial recursion (p2 = v2): the interval
/// (p1, v2] is closed by the guaranteed verification, so the partial-
/// verification cost inside E^- is upgraded by
/// e^{(ls+lf) W_{p1,v2}} (V* - V).
/// `seg` is the interval (p1, v2] and `e_right_at_v2` is R_M.
double e_partial_terminal(const Interval& seg, double v_partial,
                          double v_guaranteed, double miss,
                          const LeftContext& left) noexcept;

// ---------------------------------------------------------------------------
// Law-integrated generalization (platform::FailureLaw::kWeibull).
//
// The simulator renews the fail-stop clock per *task attempt* (each task of
// weight w_t draws one failure time; see error::WeibullInjector), so the
// renewal argument behind Eq. (4) goes through for any attempt law, with
// the interval quantities replaced by their law integrals:
//
//   H(i,j)      = sum_{t=i+1}^{j} rho_t,  rho_t = (w_t / theta)^k
//                 (cumulative hazard of one attempt over the interval)
//   e^{lf W}    ->  e^{H}          em1_f  ->  expm1(H)
//   Lambda(i,j) = E[elapsed * 1{attempt fails}]
//               = sum_t e^{-H(i,t-1)} (p_t W(i,t-1) + E[T 1{T<w_t}])
//   x = (e^{lf W}-1)/lf  ->  Lambda e^{H} + W
//   T_lost (Eq. 3)       ->  Lambda / p_fail
//
// Silent errors stay per-task Bernoulli-exponential in both the model and
// the simulator, so every lambda_s term is untouched, and the formulas
// above read an Interval the same way under either law -- which is what
// lets SegmentTables feed the same SoA coefficient streams to the
// unmodified DP kernels.  At shape k = 1 the quantities reduce to the
// exponential ones analytically (H = lf W, Lambda e^H + W = em1_f/lf);
// bitwise equality there comes from IntervalSource taking the
// exponential path, not from this one.
// ---------------------------------------------------------------------------

/// Per-task hazard data of a chain under the mean-matched Weibull planning
/// law of `costs` (shape k = costs.planning_law().weibull_shape), and the
/// law integrals of its intervals.  theta = 1 / (lambda_f * Gamma(1 + 1/k))
/// so one attempt's mean time-to-failure equals the exponential law's
/// 1/lambda_f.  lambda_f <= 0 degenerates to the failure-free law (all
/// hazards zero).  Task weights are read as prefix differences
/// weight_between(t - 1, t), the same values every interval quantity is
/// built from.  Reads `chain` in place: the chain must outlive it.
class WeibullLawTasks {
 public:
  WeibullLawTasks(const chain::TaskChain& chain,
                  const platform::CostModel& costs);

  std::size_t n() const noexcept { return rho_.size() - 1; }
  double shape() const noexcept { return shape_; }
  /// Per-attempt hazard rho_t = (w_t / theta)^shape, t in 1..n.
  double rho(std::size_t t) const noexcept { return rho_[t]; }
  /// P(task t's attempt fails) = 1 - e^{-rho_t}.
  double p_fail(std::size_t t) const noexcept { return p_fail_[t]; }
  /// E[T 1{T < w_t}]: expected elapsed work inside task t on a failing
  /// attempt.  Closed form theta Gamma(1+1/k) P(1+1/k, rho_t) = P(...)/
  /// lambda_f, with Gauss-Legendre quadrature as the fallback.
  double elapsed_when_failed(std::size_t t) const noexcept {
    return elapsed_failed_[t];
  }

  /// Calls visit(j, interval) for j = from..last (i <= from), where
  /// `interval` holds the law quantities of (i, j], t_lost only when
  /// kTLost.  H and Lambda are summed left to right from task i + 1 --
  /// one exp(-H) per task, every Lambda summand non-negative, so there is
  /// no cancellation -- and an interval's bits do not depend on `from`.
  template <bool kTLost, typename Visit>
  void walk(std::size_t i, std::size_t from, std::size_t last,
            Visit&& visit) const {
    double hazard = 0.0;      // H(i, j)
    double lambda_acc = 0.0;  // Lambda(i, j)
    for (std::size_t j = i; j <= last; ++j) {
      if (j > i) {
        const double survive_prefix = std::exp(-hazard);
        lambda_acc += survive_prefix *
                      (p_fail_[j] * chain_.weight_between(i, j - 1) +
                       elapsed_failed_[j]);
        hazard += rho_[j];
      }
      if (j >= from) visit(j, interval(i, j, hazard, lambda_acc, kTLost));
    }
  }

 private:
  Interval interval(std::size_t i, std::size_t j, double hazard,
                    double lambda_acc, bool with_t_lost) const;

  const chain::TaskChain& chain_;
  double lambda_s_;
  double shape_;
  std::vector<double> rho_;
  std::vector<double> p_fail_;
  std::vector<double> elapsed_failed_;
};

/// The one source of interval quantities, for both planning laws, and the
/// one place the law is chosen: an exponential planning law (Weibull shape
/// 1 included) takes the paper's exponential quantities, any other law the
/// WeibullLawTasks integrals.  The SegmentTables / SegmentRows fills walk
/// its rows and the evaluator asks it for the intervals a plan uses, so
/// every interval value the library reads is computed by the same
/// expressions on the same inputs -- the chain's prefix-sum differences
/// and the cost model's rates -- and the two agree bit for bit.  Reads
/// `chain` in place: the chain must outlive the source.
class IntervalSource {
 public:
  IntervalSource(const chain::TaskChain& chain,
                 const platform::CostModel& costs);

  /// The interval (i, j], 0 <= i <= j <= n, without t_lost.
  Interval interval(std::size_t i, std::size_t j) const {
    return at<false>(i, j);
  }
  /// interval(i, j) with t_lost, the one term only e_right_step reads (it
  /// costs an extra expm1 under the exponential law).
  Interval step_interval(std::size_t i, std::size_t j) const {
    return at<true>(i, j);
  }

  /// Calls visit(j, interval(i, j)) -- step_interval when kTLost -- for
  /// j = i..n in ascending order.
  template <bool kTLost, typename Visit>
  void for_each_in_row(std::size_t i, Visit&& visit) const {
    const std::size_t n = chain_.size();
    if (law_) {
      law_->walk<kTLost>(i, i, n, visit);
      return;
    }
    for (std::size_t j = i; j <= n; ++j) visit(j, exponential(i, j, kTLost));
  }

 private:
  template <bool kTLost>
  Interval at(std::size_t i, std::size_t j) const {
    if (!law_) return exponential(i, j, kTLost);
    Interval seg;
    law_->walk<kTLost>(i, j, j,
                       [&](std::size_t, const Interval& s) { seg = s; });
    return seg;
  }

  /// The exponential law's quantities of (i, j]: W, std::expm1(lambda W)
  /// of both rates, x, and Eq. (3)'s T_lost when `with_t_lost`.
  Interval exponential(std::size_t i, std::size_t j, bool with_t_lost) const;

  const chain::TaskChain& chain_;
  double lambda_f_;
  double lambda_s_;
  std::optional<WeibullLawTasks> law_;  ///< engaged for a non-exponential law
};

}  // namespace chainckpt::analysis
