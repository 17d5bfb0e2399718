// The heavy-tail planning law, bottom to top:
//
//   * util::incomplete_gamma_p against closed forms (P(1,x), P(2,x), the
//     erf identity at a = 1/2) across the series/continued-fraction
//     switch, and the Gauss-Legendre fallback against the closed form;
//   * the Weibull interval integrals (per-attempt hazard, failure
//     probability, expected elapsed-when-failed, E[elapsed | fail])
//     against brute-force Monte-Carlo simulation of the renewal process
//     at n <= 12 -- the oracle for the quantities the DP streams carry;
//   * the analytic shape -> 1 reduction of LawInterval to the
//     exponential Interval quantities;
//   * bitwise contracts: a Weibull planning law at shape exactly 1
//     produces byte-identical SegmentTables streams AND bit-identical DP
//     results (delegation, not luck), while shape != 1 changes the
//     objective;
//   * DP objective == analytic evaluator under the Weibull law, for
//     every algorithm (the same consistency bar the exponential path
//     holds).
#include "analysis/segment_math.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "analysis/evaluator.hpp"
#include "analysis/segment_tables.hpp"
#include "chain/chain.hpp"
#include "chain/patterns.hpp"
#include "core/optimizer.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace chainckpt::analysis {
namespace {

TEST(IncompleteGamma, MatchesClosedFormsAcrossBothBranches) {
  // P(1, x) = 1 - e^{-x} and P(2, x) = 1 - e^{-x}(1 + x); the sweep
  // straddles x = a + 1 where the implementation switches from the
  // series to the continued fraction.
  for (double x : {0.01, 0.3, 1.0, 1.9, 2.1, 2.9, 3.1, 7.0, 30.0}) {
    EXPECT_NEAR(util::incomplete_gamma_p(1.0, x), -std::expm1(-x), 1e-13)
        << "x=" << x;
    EXPECT_NEAR(util::incomplete_gamma_p(2.0, x),
                1.0 - std::exp(-x) * (1.0 + x), 1e-13)
        << "x=" << x;
  }
  // P(1/2, x) = erf(sqrt(x)).
  for (double x : {0.05, 0.5, 1.4, 1.6, 4.0, 12.0}) {
    EXPECT_NEAR(util::incomplete_gamma_p(0.5, x), std::erf(std::sqrt(x)),
                1e-12)
        << "x=" << x;
  }
  EXPECT_EQ(util::incomplete_gamma_p(1.5, 0.0), 0.0);
  EXPECT_NEAR(util::incomplete_gamma_p(0.5, 40.0), 1.0, 1e-12);
  // Monotone non-decreasing in x (a CDF).
  double prev = 0.0;
  for (double x = 0.05; x < 12.0; x += 0.05) {
    const double v = util::incomplete_gamma_p(2.43, x);
    EXPECT_GE(v, prev - 1e-15);
    prev = v;
  }
}

TEST(WeibullElapsedQuadrature, MatchesTheClosedForm) {
  // E[T 1{T < w}] = scale * Gamma(1 + 1/k) * P(1 + 1/k, (w/scale)^k).
  // The quadrature is the oracle/fallback; the u = (t/scale)^k
  // substitution removes the k < 1 density singularity, so 32-node
  // Gauss-Legendre lands within a loose relative tolerance everywhere.
  const double scale = 1234.5;
  for (double shape : {0.5, 0.7, 1.0, 1.5, 2.0}) {
    const double a = 1.0 + 1.0 / shape;
    for (double w : {10.0, 300.0, 1500.0, 6000.0}) {
      const double rho = std::pow(w / scale, shape);
      const double closed =
          scale * std::tgamma(a) * util::incomplete_gamma_p(a, rho);
      const double quad = util::weibull_elapsed_quadrature(shape, scale, w);
      // k <= 1 integrands are smooth in u; k > 1 keeps a u^{1/k} kink
      // that costs GL32 a few extra digits at large rho.
      const double rel = shape > 1.0 ? 5e-4 : 5e-5;
      EXPECT_NEAR(quad, closed, rel * closed + 1e-10)
          << "shape=" << shape << " w=" << w;
      EXPECT_GE(quad, 0.0);
      EXPECT_LE(quad, w * (1.0 + 1e-9));
    }
  }
  // Guards: degenerate inputs yield 0, never NaN.
  EXPECT_EQ(util::weibull_elapsed_quadrature(0.7, scale, 0.0), 0.0);
  EXPECT_EQ(util::weibull_elapsed_quadrature(0.7, 0.0, 100.0), 0.0);
}

/// The n <= 12 brute-force oracle: simulate the per-attempt renewal
/// process the planning law models -- each task t of the interval draws
/// one Weibull failure time, the first draw below its weight fails the
/// attempt at elapsed = W(i, t-1) + T_t -- and compare the Monte-Carlo
/// failure probability and conditional elapsed against the LawInterval
/// integrals the SegmentTables streams are built from.
TEST(WeibullLawTasks, IntervalIntegralsMatchBruteForceMonteCarlo) {
  const std::vector<double> weights = {800.0,  1500.0, 400.0, 2500.0,
                                       1200.0, 600.0,  3000.0, 900.0,
                                       2000.0, 700.0,  1100.0, 1800.0};
  const chain::TaskChain c(weights);
  const double lambda_f = 1e-4;
  const double shape = 0.7;
  platform::Platform p = platform::hera();
  p.lambda_f = lambda_f;
  p.lambda_s = 0.0;
  platform::CostModel costs(p);
  costs.set_planning_law({platform::FailureLaw::kWeibull, shape});
  const WeibullLawTasks tasks(c, costs);
  const double theta = 1.0 / (lambda_f * std::tgamma(1.0 + 1.0 / shape));
  const double inv_shape = 1.0 / shape;

  util::Xoshiro256 rng(20240807ULL);
  const int reps = 60000;
  // Full left edge plus every right edge: O(2n) intervals keeps the MC
  // budget sane while still exercising single-task and full-chain spans.
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t j = 1; j <= c.size(); ++j) spans.push_back({0, j});
  for (std::size_t i = 1; i + 1 <= c.size(); ++i) spans.push_back({i, c.size()});

  for (const auto& span : spans) {
    const std::size_t i = span.first, j = span.second;
    const LawInterval seg = make_law_interval(c, costs, tasks, i, j);
    long long fails = 0;
    double elapsed_sum = 0.0, elapsed_sq = 0.0;
    for (int r = 0; r < reps; ++r) {
      double done = 0.0;
      for (std::size_t t = i + 1; t <= j; ++t) {
        const double draw =
            theta * std::pow(-std::log(rng.uniform01_open_low()), inv_shape);
        if (draw < weights[t - 1]) {
          const double elapsed = done + draw;
          ++fails;
          elapsed_sum += elapsed;
          elapsed_sq += elapsed * elapsed;
          break;
        }
        done += weights[t - 1];
      }
    }
    // P(attempt fails) = em1_f / e^H.
    const double pf = seg.em1_f / seg.exp_f();
    const double pf_mc = static_cast<double>(fails) / reps;
    const double pf_se = std::sqrt(pf * (1.0 - pf) / reps);
    EXPECT_NEAR(pf_mc, pf, 4.5 * pf_se + 1e-9)
        << "interval (" << i << ", " << j << "]";
    // E[elapsed | fail] = t_lost.
    ASSERT_GT(fails, 200) << "interval (" << i << ", " << j << "]";
    const double mean = elapsed_sum / static_cast<double>(fails);
    const double var =
        std::max(0.0, elapsed_sq / static_cast<double>(fails) - mean * mean);
    const double mean_se = std::sqrt(var / static_cast<double>(fails));
    EXPECT_NEAR(mean, seg.t_lost, 4.5 * mean_se + 1e-9 * seg.t_lost)
        << "interval (" << i << ", " << j << "]";
  }
}

TEST(WeibullLaw, ShapeOneReducesToExponentialAnalytically) {
  // The raw shape = 1 integrals must reproduce the exponential interval
  // quantities analytically (the bitwise equality of the shipped tables
  // comes from delegation; THIS is the mathematical identity behind it).
  const std::vector<double> weights = {900.0, 2100.0, 450.0, 3300.0,
                                       1600.0, 800.0, 2700.0, 1250.0};
  const chain::TaskChain c(weights);
  const double lf = 3e-5, ls = 1.2e-5;
  platform::Platform p = platform::hera();
  p.lambda_f = lf;
  p.lambda_s = ls;
  platform::CostModel costs(p);
  costs.set_planning_law({platform::FailureLaw::kWeibull, 1.0});
  const WeibullLawTasks tasks(c, costs);
  for (std::size_t i = 0; i < c.size(); ++i) {
    for (std::size_t j = i + 1; j <= c.size(); ++j) {
      const LawInterval law = make_law_interval(c, costs, tasks, i, j);
      const Interval ref = make_interval(c, costs, i, j);
      EXPECT_NEAR(law.em1_f, ref.em1_f, 1e-12 * (1.0 + ref.em1_f));
      EXPECT_NEAR(law.em1_s, ref.em1_s, 1e-12 * (1.0 + ref.em1_s));
      EXPECT_NEAR(law.x, em1f_over_lambda(ref, lf), 1e-11 * law.x);
      EXPECT_NEAR(law.t_lost, util::expected_time_lost(lf, law.w),
                  1e-9 * law.t_lost);
    }
  }
}

platform::Platform amplified_hera() {
  platform::Platform p = platform::hera();
  p.lambda_f *= 25.0;
  p.lambda_s *= 25.0;
  return p;
}

TEST(SegmentTables, WeibullShapeOneStreamsAreByteIdenticalToExponential) {
  const platform::Platform p = amplified_hera();
  platform::CostModel exp_costs(p);
  platform::CostModel weib_costs(p);
  weib_costs.set_planning_law(
      {platform::FailureLaw::kWeibull, /*weibull_shape=*/1.0});
  const chain::TaskChain c = chain::make_uniform(20, 72000.0);
  const SegmentTables a(c, exp_costs);
  const SegmentTables b(c, weib_costs);
  const std::size_t row_bytes = (c.size() + 1) * sizeof(double);
  for (std::size_t j = 0; j <= c.size(); ++j) {
    // Column j stores i in [0, j].
    const std::size_t col_bytes = (j + 1) * sizeof(double);
    EXPECT_EQ(std::memcmp(a.exvg_col(j), b.exvg_col(j), col_bytes), 0);
    EXPECT_EQ(std::memcmp(a.b_col(j), b.b_col(j), col_bytes), 0);
    EXPECT_EQ(std::memcmp(a.c_col(j), b.c_col(j), col_bytes), 0);
    EXPECT_EQ(std::memcmp(a.d_col(j), b.d_col(j), col_bytes), 0);
    EXPECT_EQ(std::memcmp(a.fs_col(j), b.fs_col(j), col_bytes), 0);
  }
  // ADMV's row table takes the same law dispatch.
  const SegmentRows ra(c, exp_costs);
  const SegmentRows rb(c, weib_costs);
  for (std::size_t i = 0; i <= c.size(); ++i) {
    EXPECT_EQ(std::memcmp(ra.exv_row(i), rb.exv_row(i), row_bytes), 0);
    EXPECT_EQ(std::memcmp(ra.tl_row(i), rb.tl_row(i), row_bytes), 0);
    EXPECT_EQ(std::memcmp(ra.pf_row(i), rb.pf_row(i), row_bytes), 0);
    EXPECT_EQ(std::memcmp(ra.ef_row(i), rb.ef_row(i), row_bytes), 0);
  }
}

TEST(WeibullLaw, ShapeOneDpResultsAreBitIdenticalToExponential) {
  const platform::Platform p = amplified_hera();
  platform::CostModel exp_costs(p);
  platform::CostModel weib_costs(p);
  weib_costs.set_planning_law({platform::FailureLaw::kWeibull, 1.0});
  const chain::TaskChain c = chain::make_uniform(14, 50400.0);
  for (core::Algorithm algorithm :
       {core::Algorithm::kAD, core::Algorithm::kADVstar,
        core::Algorithm::kADMVstar, core::Algorithm::kADMV}) {
    core::DpContext exp_ctx(c, exp_costs);
    core::DpContext weib_ctx(c, weib_costs);
    const core::OptimizationResult exp_result =
        core::optimize(algorithm, exp_ctx);
    const core::OptimizationResult weib_result =
        core::optimize(algorithm, weib_ctx);
    EXPECT_EQ(exp_result.expected_makespan, weib_result.expected_makespan)
        << core::to_string(algorithm);
    EXPECT_EQ(exp_result.plan, weib_result.plan)
        << core::to_string(algorithm);
  }
}

TEST(WeibullLaw, HeavyTailShapeChangesTheObjective) {
  // The law must actually bind: at shape 0.7 the integrated objective
  // differs from the exponential plan's objective (short tasks fail
  // less per attempt under the mean-matched heavy tail; the DP sees it).
  const platform::Platform p = amplified_hera();
  platform::CostModel exp_costs(p);
  platform::CostModel weib_costs(p);
  weib_costs.set_planning_law({platform::FailureLaw::kWeibull, 0.7});
  const chain::TaskChain c = chain::make_uniform(14, 50400.0);
  core::DpContext exp_ctx(c, exp_costs);
  core::DpContext weib_ctx(c, weib_costs);
  const auto exp_result = core::optimize(core::Algorithm::kADMVstar, exp_ctx);
  const auto weib_result =
      core::optimize(core::Algorithm::kADMVstar, weib_ctx);
  EXPECT_NE(exp_result.expected_makespan, weib_result.expected_makespan);
}

TEST(WeibullLaw, DpObjectiveMatchesAnalyticEvaluatorUnderWeibull) {
  // The same consistency bar the exponential path holds: re-scoring the
  // DP's own plan through the law-aware evaluator reproduces the DP
  // objective, for every algorithm and both heavy-tail shapes.
  const std::vector<double> weights = {2800.0, 5200.0, 1400.0, 6100.0,
                                       3600.0, 2200.0, 4700.0, 3100.0,
                                       1900.0, 5400.0, 2500.0, 4100.0};
  const chain::TaskChain c(weights);
  const platform::Platform p = amplified_hera();
  for (double shape : {0.7, 0.5}) {
    platform::CostModel costs(p);
    costs.set_planning_law({platform::FailureLaw::kWeibull, shape});
    const PlanEvaluator evaluator(c, costs);
    for (core::Algorithm algorithm :
         {core::Algorithm::kAD, core::Algorithm::kADVstar,
          core::Algorithm::kADMVstar, core::Algorithm::kADMV}) {
      core::DpContext ctx(c, costs);
      const core::OptimizationResult result = core::optimize(algorithm, ctx);
      // ADMV scores under the partial framework even when the optimal
      // plan places no partial verifications (failed attempts pay V, the
      // success upgrades to V*); kAuto would re-score such a plan with
      // Eq. (4) semantics, which differ by es * em1_f * (V* - V).
      const FormulaMode mode = algorithm == core::Algorithm::kADMV
                                   ? FormulaMode::kPartialFramework
                                   : FormulaMode::kAuto;
      EXPECT_NEAR(evaluator.expected_makespan(result.plan, mode),
                  result.expected_makespan,
                  1e-9 * result.expected_makespan)
          << core::to_string(algorithm) << " shape " << shape;
    }
  }
}

}  // namespace
}  // namespace chainckpt::analysis
