#include "analysis/segment_math.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "chain/patterns.hpp"
#include "platform/cost_model.hpp"
#include "platform/registry.hpp"
#include "util/math.hpp"

namespace chainckpt::analysis {
namespace {

/// Hera's costs with the given error rates.
platform::CostModel with_rates(double lambda_f, double lambda_s) {
  platform::Platform p = platform::hera();
  p.lambda_f = lambda_f;
  p.lambda_s = lambda_s;
  return platform::CostModel(p);
}

/// The one-task interval (0, 1] of weight w at rates (lf, ls), T_lost
/// included.
Interval make(double w, double lf, double ls) {
  const chain::TaskChain c(std::vector<double>{w});
  return IntervalSource(c, with_rates(lf, ls)).step_interval(0, 1);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(Interval, DerivedQuantities) {
  const Interval seg = make(1000.0, 1e-4, 2e-4);
  EXPECT_NEAR(seg.exp_f(), std::exp(0.1), 1e-12);
  EXPECT_NEAR(seg.exp_s(), std::exp(0.2), 1e-12);
  EXPECT_NEAR(seg.em1_fs(), std::expm1(0.3), 1e-12);
  EXPECT_NEAR(seg.exp_fs(), std::exp(0.3), 1e-12);
}

TEST(Interval, MakeIntervalReadsChainPrefixSums) {
  const auto c = chain::make_uniform(4, 4000.0);
  const Interval seg = IntervalSource(c, with_rates(1e-5, 2e-5)).interval(1, 3);
  EXPECT_DOUBLE_EQ(seg.w, 2000.0);
  EXPECT_NEAR(seg.em1_f, std::expm1(2e-2), 1e-15);
  EXPECT_NEAR(seg.em1_s, std::expm1(4e-2), 1e-15);
}

TEST(Interval, WeightsMatchChain) {
  const chain::TaskChain c({1.0, 2.0, 4.0});
  const platform::CostModel costs = with_rates(1e-6, 2e-6);
  for (std::size_t i = 0; i <= 3; ++i)
    for (std::size_t j = i; j <= 3; ++j)
      EXPECT_TRUE(same_bits(IntervalSource(c, costs).interval(i, j).w,
                            c.weight_between(i, j)));
}

TEST(Interval, Em1ValuesAreExpm1OfPrefixDifferencesBitwise) {
  const chain::TaskChain c({100.0, 500.0, 1000.0, 250.0});
  const double lf = 9.46e-7, ls = 3.38e-6;
  const IntervalSource source(c, with_rates(lf, ls));
  for (std::size_t i = 0; i <= 4; ++i) {
    for (std::size_t j = i; j <= 4; ++j) {
      const double w = c.weight_between(i, j);
      const Interval seg = source.interval(i, j);
      EXPECT_TRUE(same_bits(seg.em1_f, std::expm1(lf * w)))
          << "(" << i << ", " << j << "]";
      EXPECT_TRUE(same_bits(seg.em1_s, std::expm1(ls * w)))
          << "(" << i << ", " << j << "]";
      EXPECT_NEAR(seg.exp_f(), std::exp(lf * w), 1e-12);
      EXPECT_NEAR(seg.exp_s(), std::exp(ls * w), 1e-12);
      EXPECT_NEAR(seg.exp_fs(), std::exp((lf + ls) * w), 1e-12);
    }
  }
}

TEST(Interval, CombinedEm1HasNoCancellation) {
  // em1_fs must stay fully accurate where exp_f*exp_s - 1 would lose
  // precision: tiny rates over short intervals.
  const chain::TaskChain c(std::vector<double>{1.0});
  const Interval seg = IntervalSource(c, with_rates(1e-9, 1e-9)).interval(0, 1);
  // expm1(2e-9) = 2e-9 + 2e-18 + ...; the assembled form must keep the
  // second-order term that exp_f * exp_s - 1 would destroy.
  EXPECT_NEAR(seg.em1_fs(), std::expm1(2e-9), 1e-24);
}

TEST(Interval, ZeroRatesGiveZeroEm1) {
  const chain::TaskChain c({1000.0, 2000.0});
  const Interval seg = IntervalSource(c, with_rates(0.0, 0.0)).interval(0, 2);
  EXPECT_DOUBLE_EQ(seg.em1_f, 0.0);
  EXPECT_DOUBLE_EQ(seg.em1_s, 0.0);
  EXPECT_DOUBLE_EQ(seg.exp_fs(), 1.0);
}

TEST(Interval, DiagonalIsIdentity) {
  const auto c = chain::make_uniform(20, 25000.0);
  const IntervalSource source(c, with_rates(1e-6, 1e-5));
  for (std::size_t i = 0; i <= 20; ++i) {
    const Interval seg = source.interval(i, i);
    EXPECT_DOUBLE_EQ(seg.w, 0.0);
    EXPECT_DOUBLE_EQ(seg.em1_f, 0.0);
    EXPECT_DOUBLE_EQ(seg.exp_s(), 1.0);
  }
}

TEST(Interval, PaperQuotedTaskFailureProbabilitiesOnHera) {
  // HighLow discussion: "a large task [3000s] will fail with probability
  // 1.3%, as opposed to ... 0.096% for small tasks [~222s]" on Hera.  The
  // combined fail-stop + silent probability is 1 - e^{-(lf + ls) W}.
  const platform::CostModel hera(platform::hera());
  const chain::TaskChain c(std::vector<double>{3000.0, 10000.0 / 45.0});
  const IntervalSource source(c, hera);
  EXPECT_NEAR(1.0 - 1.0 / source.interval(0, 1).exp_fs(), 0.013, 0.0005);
  EXPECT_NEAR(1.0 - 1.0 / source.interval(1, 2).exp_fs(), 0.00096, 0.00005);
}

TEST(WeibullLawTasks, PaperQuotedTimeLostOnHera) {
  // HighLow discussion: T_lost ~ 1500s for a 3000s task on Hera (Eq. (3)
  // through the shape-1 law integral).
  platform::CostModel hera(platform::hera());
  hera.set_planning_law({platform::FailureLaw::kWeibull, 1.0});
  const chain::TaskChain c(std::vector<double>{3000.0});
  const WeibullLawTasks tasks(c, hera);
  Interval seg;
  tasks.walk<true>(0, 1, 1, [&](std::size_t, const Interval& s) { seg = s; });
  EXPECT_NEAR(seg.t_lost, 1500.0, 1.0);
}

TEST(Em1fOverLambda, MatchesBothBranches) {
  // Large-rate branch: em1_f / lambda.
  EXPECT_NEAR(make(1000.0, 1e-3, 0.0).x, std::expm1(1.0) / 1e-3, 1e-6);
  // Series branch: W as lambda -> 0.
  EXPECT_DOUBLE_EQ(make(1000.0, 0.0, 0.0).x, 1000.0);
  EXPECT_NEAR(make(1000.0, 1e-12, 0.0).x, 1000.0, 1e-6);
}

TEST(ExpectedVerifiedSegment, ErrorFreeLimitIsWorkPlusVerification) {
  // With both rates zero Eq. (4) collapses to W + V*.
  const Interval seg = make(5000.0, 0.0, 0.0);
  const LeftContext left{300.0, 15.0, 1234.0, 567.0};
  EXPECT_DOUBLE_EQ(expected_verified_segment(seg, 15.4, left),
                   5015.4);
}

TEST(ExpectedVerifiedSegment, MatchesEq4TermByTerm) {
  const double lf = 9.46e-7, ls = 3.38e-6, w = 2500.0;
  const Interval seg = make(w, lf, ls);
  const LeftContext left{300.0, 15.4, 800.0, 120.0};
  const double vstar = 15.4;
  const double es = std::exp(ls * w);
  const double expected = es * (std::expm1(lf * w) / lf + vstar) +
                          es * std::expm1(lf * w) * (300.0 + 800.0) +
                          std::expm1((lf + ls) * w) * 120.0 +
                          std::expm1(ls * w) * 15.4;
  EXPECT_NEAR(expected_verified_segment(seg, vstar, left), expected,
              1e-9 * expected);
}

TEST(ExpectedVerifiedSegment, SolvesItsOwnRecursion) {
  // Eq. (4) is the closed form of the fixed point Eq. (2):
  //   E = pf (Tlost + RD + Emem + Everif + E)
  //     + (1-pf) (W + V* + ps (RM + Everif + E)).
  const double lf = 2e-4, ls = 5e-4, w = 1800.0;
  const Interval seg = make(w, lf, ls);
  const LeftContext left{250.0, 12.0, 432.1, 98.7};
  const double vstar = 20.0;
  const double e = expected_verified_segment(seg, vstar, left);

  const double pf = util::error_probability(lf, w);
  const double ps = util::error_probability(ls, w);
  const double tlost = util::expected_time_lost(lf, w);
  const double rhs =
      pf * (tlost + left.r_disk + left.e_mem + left.e_verif + e) +
      (1.0 - pf) * (w + vstar + ps * (left.r_mem + left.e_verif + e));
  EXPECT_NEAR(e, rhs, 1e-8 * e);
}

TEST(ExpectedVerifiedSegment, MonotoneInEveryCost) {
  const double lf = 9.46e-7;
  const Interval seg = make(3000.0, lf, 3.38e-6);
  const LeftContext base{300.0, 15.4, 500.0, 100.0};
  const double e0 = expected_verified_segment(seg, 15.4, base);
  EXPECT_GT(expected_verified_segment(seg, 20.0, base), e0);
  EXPECT_GT(expected_verified_segment(
                seg, 15.4, LeftContext{400.0, 15.4, 500.0, 100.0}),
            e0);
  EXPECT_GT(expected_verified_segment(
                seg, 15.4, LeftContext{300.0, 25.4, 500.0, 100.0}),
            e0);
  EXPECT_GT(expected_verified_segment(
                seg, 15.4, LeftContext{300.0, 15.4, 600.0, 100.0}),
            e0);
  EXPECT_GT(expected_verified_segment(
                seg, 15.4, LeftContext{300.0, 15.4, 500.0, 150.0}),
            e0);
}

TEST(ERightStep, SolvesItsOwnDefinition) {
  // E_right = pf (Tlost + RD + Emem) + (1-pf)(W + V + (1-g) RM + g E').
  const double lf = 3e-4, w = 900.0;
  const Interval seg = make(w, lf, 1e-4);
  const double v = 0.15, g = 0.2, rd = 300.0, rm = 15.4, emem = 777.0;
  const double er_next = 42.0;
  const double pf = util::error_probability(lf, w);
  const double tlost = util::expected_time_lost(lf, w);
  const double expected = pf * (tlost + rd + emem) +
                          (1.0 - pf) * (w + v + 0.8 * rm + g * er_next);
  EXPECT_NEAR(e_right_step(seg, v, g, rd, rm, emem, er_next), expected,
              1e-10 * expected);
}

TEST(ERightStep, ZeroFailStopReducesToDetectionWalk) {
  const Interval seg = make(500.0, 0.0, 1e-4);
  const double v = 0.2, g = 0.2, rm = 10.0;
  // No fail-stop: W + V + (1-g) RM + g E'.
  EXPECT_NEAR(e_right_step(seg, v, g, 999.0, rm, 888.0, 77.0),
              500.0 + 0.2 + 0.8 * 10.0 + 0.2 * 77.0, 1e-10);
}

TEST(EMinusSegment, DiffersFromEq4OnlyInVerificationAndMissTerms) {
  // With g = 0 (perfect recall) and V = V*, E^- must equal Eq. (4): the
  // partial verification behaves exactly like a guaranteed one.
  const double lf = 9.46e-7, ls = 3.38e-6;
  const Interval seg = make(2100.0, lf, ls);
  const LeftContext left{300.0, 15.4, 654.0, 321.0};
  const double e4 = expected_verified_segment(seg, 15.4, left);
  const double em = e_minus_segment(seg, /*v_partial=*/15.4,
                                    /*miss=*/0.0, left,
                                    /*e_right_next=*/12345.0);
  EXPECT_NEAR(em, e4, 1e-9 * e4);
}

TEST(EMinusSegment, MissTermWeightsERight) {
  const double lf = 1e-6, ls = 1e-5;
  const Interval seg = make(1500.0, lf, ls);
  const LeftContext left{100.0, 10.0, 50.0, 20.0};
  const double em_low = e_minus_segment(seg, 0.1, 0.2, left, 0.0);
  const double em_high = e_minus_segment(seg, 0.1, 0.2, left, 1000.0);
  // Coefficient of E_right is g * (e^{ls W} - 1).
  EXPECT_NEAR(em_high - em_low, 0.2 * std::expm1(ls * 1500.0) * 1000.0,
              1e-9 * em_high);
}

TEST(EPartialTerminal, UpgradesVerificationCost) {
  const double lf = 1e-6, ls = 1e-5;
  const Interval seg = make(1500.0, lf, ls);
  const LeftContext left{100.0, 10.0, 50.0, 20.0};
  const double v = 0.154, vstar = 15.4, g = 0.2;
  const double base = e_minus_segment(seg, v, g, left, left.r_mem);
  EXPECT_NEAR(e_partial_terminal(seg, v, vstar, g, left),
              base + std::exp((lf + ls) * 1500.0) * (vstar - v), 1e-9);
}

}  // namespace
}  // namespace chainckpt::analysis
