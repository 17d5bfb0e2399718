// Property battery for core::sensitivity and analysis::first_order.
//
// Two layers:
//  * finite-difference cross-checks: every closed-form first-order
//    derivative (Young/Daly periods + overhead) against central
//    differences at THREE step sizes, on the Table I platforms and on
//    seeded random platforms.
//  * the soundness lemma behind ValidityCertificate's epsilon-hits:
//    for any FIXED plan the evaluator objective is affine in the cost
//    vector with non-negative slope and monotone non-decreasing in the
//    error rates and the miss probability -- under the exponential AND
//    the Weibull planning law.  These are the exact properties the
//    gamma-scaled lower bound of check_certificate rests on.
#include "core/sensitivity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "analysis/evaluator.hpp"
#include "analysis/first_order.hpp"
#include "chain/patterns.hpp"
#include "core/dp_context.hpp"
#include "core/optimizer.hpp"
#include "platform/registry.hpp"
#include "util/rng.hpp"

namespace chainckpt::core {
namespace {

const double kSteps[] = {1e-3, 1e-4, 1e-5};

std::vector<platform::Platform> table1_platforms() {
  return {platform::hera(), platform::atlas(), platform::coastal(),
          platform::coastal_ssd()};
}

platform::Platform random_platform(std::uint64_t seed) {
  util::Xoshiro256 rng = util::Xoshiro256::stream(seed, 0);
  platform::Platform p = platform::hera();
  const auto jitter = [&rng] { return std::exp(2.0 * rng.uniform01() - 1.0); };
  p.lambda_f *= 25.0 * jitter();
  p.lambda_s *= 25.0 * jitter();
  p.c_disk *= jitter();
  p.c_mem *= jitter();
  p.r_disk *= jitter();
  p.r_mem *= jitter();
  p.v_guaranteed *= jitter();
  p.v_partial *= jitter();
  p.recall = 0.5 + 0.5 * rng.uniform01();
  return p;
}

/// Central difference of f around x at relative step h; returns the best
/// (smallest |fd - analytic| relative error) across the three steps, so a
/// single step hitting cancellation noise cannot fail the check.
template <typename F>
double best_fd_error(const F& f, double x, double analytic) {
  double best = std::numeric_limits<double>::infinity();
  for (const double h : kSteps) {
    const double dx = x * h;
    const double fd = (f(x + dx) - f(x - dx)) / (2.0 * dx);
    const double scale = std::max(std::abs(analytic), 1e-300);
    best = std::min(best, std::abs(fd - analytic) / scale);
  }
  return best;
}

void check_first_order_derivatives(const platform::Platform& p) {
  using analysis::first_order_prediction;
  const analysis::FirstOrderPrediction fo = first_order_prediction(p);

  // period_verif = sqrt(2 V*/ls): d/dV* = P/(2 V*), d/dls = -P/(2 ls).
  EXPECT_LT(best_fd_error(
                [&](double v) {
                  platform::Platform q = p;
                  q.v_guaranteed = v;
                  return first_order_prediction(q).period_verif;
                },
                p.v_guaranteed, fo.period_verif / (2.0 * p.v_guaranteed)),
            1e-6)
      << p.name << " dW_V/dV*";
  EXPECT_LT(best_fd_error(
                [&](double l) {
                  platform::Platform q = p;
                  q.lambda_s = l;
                  return first_order_prediction(q).period_verif;
                },
                p.lambda_s, -fo.period_verif / (2.0 * p.lambda_s)),
            1e-6)
      << p.name << " dW_V/dlambda_s";

  // period_memory = sqrt(2 (C_M + V*)/ls).
  const double mem_base = p.c_mem + p.v_guaranteed;
  EXPECT_LT(best_fd_error(
                [&](double c) {
                  platform::Platform q = p;
                  q.c_mem = c;
                  return first_order_prediction(q).period_memory;
                },
                p.c_mem, fo.period_memory / (2.0 * mem_base)),
            1e-6)
      << p.name << " dW_M/dC_M";
  EXPECT_LT(best_fd_error(
                [&](double l) {
                  platform::Platform q = p;
                  q.lambda_s = l;
                  return first_order_prediction(q).period_memory;
                },
                p.lambda_s, -fo.period_memory / (2.0 * p.lambda_s)),
            1e-6)
      << p.name << " dW_M/dlambda_s";

  // period_disk = sqrt(2 C_D/lf).
  EXPECT_LT(best_fd_error(
                [&](double c) {
                  platform::Platform q = p;
                  q.c_disk = c;
                  return first_order_prediction(q).period_disk;
                },
                p.c_disk, fo.period_disk / (2.0 * p.c_disk)),
            1e-6)
      << p.name << " dW_D/dC_D";
  EXPECT_LT(best_fd_error(
                [&](double l) {
                  platform::Platform q = p;
                  q.lambda_f = l;
                  return first_order_prediction(q).period_disk;
                },
                p.lambda_f, -fo.period_disk / (2.0 * p.lambda_f)),
            1e-6)
      << p.name << " dW_D/dlambda_f";

  // overhead = sqrt(2 ls (C_M + V*)) + sqrt(2 lf C_D).
  EXPECT_LT(best_fd_error(
                [&](double l) {
                  platform::Platform q = p;
                  q.lambda_s = l;
                  return first_order_prediction(q).overhead;
                },
                p.lambda_s,
                0.5 * std::sqrt(2.0 * mem_base / p.lambda_s)),
            1e-6)
      << p.name << " dH/dlambda_s";
  EXPECT_LT(best_fd_error(
                [&](double l) {
                  platform::Platform q = p;
                  q.lambda_f = l;
                  return first_order_prediction(q).overhead;
                },
                p.lambda_f, 0.5 * std::sqrt(2.0 * p.c_disk / p.lambda_f)),
            1e-6)
      << p.name << " dH/dlambda_f";
  EXPECT_LT(best_fd_error(
                [&](double c) {
                  platform::Platform q = p;
                  q.c_disk = c;
                  return first_order_prediction(q).overhead;
                },
                p.c_disk, 0.5 * std::sqrt(2.0 * p.lambda_f / p.c_disk)),
            1e-6)
      << p.name << " dH/dC_D";
  EXPECT_LT(best_fd_error(
                [&](double c) {
                  platform::Platform q = p;
                  q.c_mem = c;
                  return first_order_prediction(q).overhead;
                },
                p.c_mem, 0.5 * std::sqrt(2.0 * p.lambda_s / mem_base)),
            1e-6)
      << p.name << " dH/dC_M";
}

TEST(FirstOrderDerivatives, FiniteDifferencesMatchOnTableI) {
  for (const platform::Platform& p : table1_platforms()) {
    check_first_order_derivatives(p);
  }
}

TEST(FirstOrderDerivatives, FiniteDifferencesMatchOnSeededRandomPlatforms) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    check_first_order_derivatives(random_platform(seed));
  }
}

TEST(FirstOrderDerivatives, StabilityRadiusIsMonotoneAndClamped) {
  EXPECT_DOUBLE_EQ(analysis::stability_radius(0), 0.5);
  EXPECT_DOUBLE_EQ(analysis::stability_radius(1), 0.5);
  double prev = analysis::stability_radius(1);
  for (std::size_t count = 2; count <= 200; ++count) {
    const double r = analysis::stability_radius(count);
    EXPECT_LE(r, prev);
    EXPECT_GE(r, 0.02);
    EXPECT_LE(r, 0.5);
    prev = r;
  }
  EXPECT_DOUBLE_EQ(analysis::stability_radius(1000), 0.02);
}

// ---------------------------------------------------------------- lemma

struct FixedPlanCase {
  chain::TaskChain chain;
  platform::Platform platform;
  plan::ResiliencePlan plan;
  platform::PlanningLaw law;
};

FixedPlanCase make_case(std::uint64_t seed, bool weibull) {
  FixedPlanCase out{chain::make_uniform(10, 25000.0),
                    random_platform(seed),
                    plan::ResiliencePlan(),
                    {}};
  if (weibull) {
    out.law = {platform::FailureLaw::kWeibull, 0.7};
  }
  platform::CostModel costs(out.platform);
  costs.set_planning_law(out.law);
  DpContext ctx(out.chain, costs);
  out.plan = optimize(Algorithm::kADMVstar, ctx).plan;
  return out;
}

platform::CostModel scaled_costs(const FixedPlanCase& c, double cost_scale,
                                 double rate_scale, double recall = -1.0) {
  platform::Platform p = c.platform;
  p.c_disk *= cost_scale;
  p.c_mem *= cost_scale;
  p.r_disk *= cost_scale;
  p.r_mem *= cost_scale;
  p.v_guaranteed *= cost_scale;
  p.v_partial *= cost_scale;
  p.lambda_f *= rate_scale;
  p.lambda_s *= rate_scale;
  if (recall >= 0.0) p.recall = recall;
  platform::CostModel costs(p);
  costs.set_planning_law(c.law);
  return costs;
}

double score(const FixedPlanCase& c, const platform::CostModel& costs) {
  return analysis::PlanEvaluator(c.chain, costs)
      .expected_makespan(c.plan);
}

TEST(CertificateLemma, ObjectiveIsAffineInTheCostVector) {
  // E(P, s * costs) must be exactly linear in s -- the basis of the
  // gamma-scaled lower bound.  Midpoint test at machine precision.
  for (const bool weibull : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const FixedPlanCase c = make_case(seed, weibull);
      const double lo = score(c, scaled_costs(c, 0.5, 1.0));
      const double mid = score(c, scaled_costs(c, 1.0, 1.0));
      const double hi = score(c, scaled_costs(c, 1.5, 1.0));
      EXPECT_NEAR(mid, 0.5 * (lo + hi), 1e-9 * mid)
          << "seed " << seed << (weibull ? " weibull" : " exp");
      // Non-negative slope and constant term >= total weight.
      EXPECT_LE(lo, hi);
      EXPECT_GE(2.0 * lo - hi, c.chain.total_weight() * (1.0 - 1e-12));
    }
  }
}

TEST(CertificateLemma, ObjectiveIsMonotoneInRatesAndMiss) {
  for (const bool weibull : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      const FixedPlanCase c = make_case(seed, weibull);
      const double base = score(c, scaled_costs(c, 1.0, 1.0));
      EXPECT_GE(score(c, scaled_costs(c, 1.0, 1.3)), base * (1.0 - 1e-12))
          << "rates up, seed " << seed;
      // Lower recall = higher miss probability g.
      const double worse_recall =
          score(c, scaled_costs(c, 1.0, 1.0, c.platform.recall * 0.5));
      EXPECT_GE(worse_recall, base * (1.0 - 1e-12))
          << "recall down, seed " << seed;
    }
  }
}

TEST(CertificateLemma, CheckCertificateHonorsTheGammaBound) {
  // End-to-end soundness: whenever check_certificate reports a bound, a
  // FRESH optimum under the drifted model must sit at or above it.
  for (const bool weibull : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const FixedPlanCase c = make_case(seed, weibull);
      platform::CostModel base_costs(c.platform);
      base_costs.set_planning_law(c.law);
      DpContext base_ctx(c.chain, base_costs);
      const OptimizationResult base_opt =
          optimize(Algorithm::kADMVstar, base_ctx);
      const ValidityCertificate cert = make_validity_certificate(
          base_opt.plan, c.platform, base_opt.expected_makespan,
          c.chain.total_weight());

      util::Xoshiro256 rng = util::Xoshiro256::stream(seed, 99);
      for (int trial = 0; trial < 6; ++trial) {
        const double cost_scale = 0.9 + 0.3 * rng.uniform01();
        const double rate_scale = 1.0 + 0.2 * rng.uniform01();  // never down
        const platform::CostModel request =
            scaled_costs(c, cost_scale, rate_scale);
        const DriftCheck check =
            check_certificate(cert, base_costs, request, c.chain.size());
        EXPECT_GE(check.lower_bound,
                  c.chain.total_weight() * (1.0 - 1e-12));
        DpContext ctx(c.chain, request);
        const OptimizationResult fresh =
            optimize(Algorithm::kADMVstar, ctx);
        EXPECT_GE(fresh.expected_makespan,
                  check.lower_bound * (1.0 - 1e-9))
            << "seed " << seed << " trial " << trial;
      }
    }
  }
}

TEST(CertificateLemma, DecreasedRatesFallBackToTheWeightFloor) {
  const FixedPlanCase c = make_case(3, /*weibull=*/false);
  platform::CostModel base_costs(c.platform);
  const ValidityCertificate cert = make_validity_certificate(
      c.plan, c.platform, score(c, base_costs), c.chain.total_weight());
  // Rates go DOWN: the multiplicative bound is unsound there, so the
  // check must not scale -- only the unconditional weight floor remains.
  const platform::CostModel request = scaled_costs(c, 1.0, 0.8);
  const DriftCheck check =
      check_certificate(cert, base_costs, request, c.chain.size());
  EXPECT_FALSE(check.scaled_bound);
  EXPECT_DOUBLE_EQ(check.lower_bound, c.chain.total_weight());
}

TEST(CertificateLemma, IdenticalModelsAreAnExactMatch) {
  const FixedPlanCase c = make_case(5, /*weibull=*/true);
  platform::CostModel costs(c.platform);
  costs.set_planning_law(c.law);
  const ValidityCertificate cert = make_validity_certificate(
      c.plan, c.platform, score(c, costs), c.chain.total_weight());
  const DriftCheck check =
      check_certificate(cert, costs, costs, c.chain.size());
  EXPECT_EQ(check.outcome, DriftOutcome::kExactMatch);
  EXPECT_DOUBLE_EQ(check.max_drift, 0.0);
}

TEST(CertificateLemma, LawFamilyChangeIsBeyondRadius) {
  const FixedPlanCase c = make_case(2, /*weibull=*/false);
  platform::CostModel base_costs(c.platform);
  const ValidityCertificate cert = make_validity_certificate(
      c.plan, c.platform, score(c, base_costs), c.chain.total_weight());
  platform::CostModel request(c.platform);
  request.set_planning_law({platform::FailureLaw::kWeibull, 0.7});
  const DriftCheck check =
      check_certificate(cert, base_costs, request, c.chain.size());
  EXPECT_EQ(check.outcome, DriftOutcome::kBeyondRadius);
}

}  // namespace
}  // namespace chainckpt::core
