#include "analysis/evaluator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "chain/patterns.hpp"
#include "plan/plan_builder.hpp"
#include "platform/registry.hpp"
#include "util/math.hpp"

namespace chainckpt::analysis {
namespace {

platform::CostModel hera_costs() {
  return platform::CostModel(platform::hera());
}

TEST(PlanEvaluator, RejectsMismatchedSizes) {
  const PlanEvaluator ev(chain::make_uniform(5, 1000.0), hera_costs());
  EXPECT_THROW(ev.expected_makespan(plan::ResiliencePlan(4)),
               std::invalid_argument);
}

TEST(PlanEvaluator, RejectsTwoLevelModeWithPartials) {
  const PlanEvaluator ev(chain::make_uniform(5, 1000.0), hera_costs());
  const auto p = plan::PlanBuilder(5).partial_verif_at(2).build();
  EXPECT_THROW(ev.expected_makespan(p, FormulaMode::kTwoLevel),
               std::invalid_argument);
  EXPECT_NO_THROW(ev.expected_makespan(p, FormulaMode::kPartialFramework));
  EXPECT_NO_THROW(ev.expected_makespan(p));  // auto resolves
}

TEST(PlanEvaluator, ErrorFreeMakespanIsWorkPlusOverheads) {
  // With zero error rates the expectation is exactly deterministic.
  platform::Platform p = platform::hera();
  p.lambda_f = 0.0;
  p.lambda_s = 0.0;
  const platform::CostModel costs(p);
  const auto chain = chain::make_uniform(10, 25000.0);
  const PlanEvaluator ev(chain, costs);

  const auto minimal = plan::ResiliencePlan(10);
  EXPECT_NEAR(ev.expected_makespan(minimal),
              25000.0 + p.v_guaranteed + p.c_mem + p.c_disk, 1e-9);

  // V at 2; V* at 4; V*+CM at 6; V*+CM+CD at 8; V*+CM+CD at 10.
  const auto decorated = plan::PlanBuilder(10)
                             .partial_verif_at(2)
                             .guaranteed_verif_at(4)
                             .memory_checkpoint_at(6)
                             .disk_checkpoint_at(8)
                             .build();
  EXPECT_NEAR(ev.expected_makespan(decorated),
              25000.0 + p.v_partial + 4 * p.v_guaranteed + 3 * p.c_mem +
                  2 * p.c_disk,
              1e-9);
}

TEST(PlanEvaluator, SingleTaskMatchesHandComputedEq4) {
  // One task, minimal plan: E = e^{ls W}((e^{lf W}-1)/lf + V*) + CM + CD
  // (recoveries are free from the virtual T0).
  const platform::Platform p = platform::hera();
  const auto chain = chain::make_uniform(1, 25000.0);
  const PlanEvaluator ev(chain, platform::CostModel(p));
  const double w = 25000.0;
  const double by_hand =
      std::exp(p.lambda_s * w) *
          (std::expm1(p.lambda_f * w) / p.lambda_f + p.v_guaranteed) +
      p.c_mem + p.c_disk;
  EXPECT_NEAR(ev.expected_makespan(plan::ResiliencePlan(1)), by_hand,
              1e-9 * by_hand);
  // The paper's Figure 5 Hera plot starts around 1.11 at n = 1.
  EXPECT_NEAR(ev.normalized_makespan(plan::ResiliencePlan(1)), 1.1144,
              0.0005);
}

TEST(PlanEvaluator, TwoSegmentsCompose) {
  // Verification at 1, end at 2: total = E(0,0,0,1) + E(0,0,1,2) + CM + CD
  // with E_verif(0,0,1) feeding the second segment.
  const platform::Platform p = platform::hera();
  const platform::CostModel costs(p);
  const auto chain = chain::make_uniform(2, 10000.0);
  const PlanEvaluator ev(chain, costs);
  const auto with_verif = plan::PlanBuilder(2).guaranteed_verif_at(1).build();

  const IntervalSource source(chain, costs);
  const LeftContext left0{0.0, 0.0, 0.0, 0.0};
  const double seg1 = expected_verified_segment(source.interval(0, 1),
                                                p.v_guaranteed, left0);
  const LeftContext left1{0.0, 0.0, 0.0, seg1};
  const double seg2 = expected_verified_segment(source.interval(1, 2),
                                                p.v_guaranteed, left1);
  EXPECT_NEAR(ev.expected_makespan(with_verif),
              seg1 + seg2 + p.c_mem + p.c_disk, 1e-9 * (seg1 + seg2));

  const auto segments = ev.verified_segments(with_verif);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].v2, 1u);
  EXPECT_EQ(segments[1].v1, 1u);
  EXPECT_NEAR(segments[0].value, seg1, 1e-9 * seg1);
  EXPECT_NEAR(segments[1].value, seg2, 1e-9 * seg2);
}

TEST(PlanEvaluator, SegmentsPlusCheckpointsEqualTotal) {
  const auto chain = chain::make_decrease(12, 25000.0);
  const platform::CostModel costs(platform::atlas());
  const PlanEvaluator ev(chain, costs);
  const auto p = plan::PlanBuilder(12)
                     .partial_verifs_at({1, 5})
                     .guaranteed_verif_at(3)
                     .memory_checkpoint_at(6)
                     .disk_checkpoint_at(9)
                     .build();
  double sum = 0.0;
  for (const auto& s : ev.verified_segments(p)) sum += s.value;
  // interior: M at 6, D at 9 (with M); final: D at 12 (with M).
  sum += 3 * costs.platform().c_mem + 2 * costs.platform().c_disk;
  EXPECT_NEAR(ev.expected_makespan(p), sum, 1e-9 * sum);
}

TEST(PlanEvaluator, TwoLevelVsPartialFrameworkNuanceIsBounded) {
  // On a partial-free plan the two frameworks differ per segment by
  // (V*-V)(e^{(lf+ls)W} - e^{ls W}) -- tiny but nonzero (see DESIGN.md).
  const auto chain = chain::make_uniform(10, 25000.0);
  const platform::CostModel costs(platform::hera());
  const PlanEvaluator ev(chain, costs);
  const auto p = plan::PlanBuilder(10).memory_checkpoint_at(5).build();
  const double two = ev.expected_makespan(p, FormulaMode::kTwoLevel);
  const double partial =
      ev.expected_makespan(p, FormulaMode::kPartialFramework);
  EXPECT_GT(partial, two);  // the Section III-B accounting charges more
  EXPECT_LT((partial - two) / two, 1e-4);
}

TEST(PlanEvaluator, MoreErrorsNeverHelp) {
  const auto chain = chain::make_uniform(8, 25000.0);
  const auto p = plan::PlanBuilder(8).memory_checkpoint_at(4).build();
  platform::Platform base = platform::hera();
  const PlanEvaluator ev0(chain, platform::CostModel(base));
  platform::Platform worse_f = base;
  worse_f.lambda_f *= 10.0;
  platform::Platform worse_s = base;
  worse_s.lambda_s *= 10.0;
  const PlanEvaluator evf(chain, platform::CostModel(worse_f));
  const PlanEvaluator evs(chain, platform::CostModel(worse_s));
  EXPECT_GT(evf.expected_makespan(p), ev0.expected_makespan(p));
  EXPECT_GT(evs.expected_makespan(p), ev0.expected_makespan(p));
}

TEST(PlanEvaluator, UselessVerificationCostsWhenNoSilentErrors) {
  // With lambda_s = 0, verifications can never catch anything: each one
  // strictly increases the expectation.
  platform::Platform p = platform::hera();
  p.lambda_s = 0.0;
  const platform::CostModel costs(p);
  const auto chain = chain::make_uniform(6, 25000.0);
  const PlanEvaluator ev(chain, costs);
  const auto bare = plan::ResiliencePlan(6);
  const auto verified = plan::PlanBuilder(6).guaranteed_verif_at(3).build();
  EXPECT_GT(ev.expected_makespan(verified), ev.expected_makespan(bare));
}

TEST(PlanEvaluator, NormalizedMakespanAlwaysAboveOne) {
  const auto chain = chain::make_highlow(10, 25000.0);
  const PlanEvaluator ev(chain, hera_costs());
  EXPECT_GT(ev.normalized_makespan(plan::ResiliencePlan(10)), 1.0);
}

/// Property sweep: for every platform and pattern, a memory checkpoint in
/// the middle never hurts more than the two bracketing alternatives allow:
/// eval is finite, positive, and adding the checkpoint changes the value
/// by less than its worst-case bound (C_M + full re-execution).
class EvaluatorSanity
    : public ::testing::TestWithParam<std::tuple<std::string, chain::Pattern>> {
};

TEST_P(EvaluatorSanity, FiniteAndBounded) {
  const auto [platform_name, pattern] = GetParam();
  const auto platform = platform::by_name(platform_name);
  const auto chain = chain::make_pattern(pattern, 12, 25000.0);
  const PlanEvaluator ev(chain, platform::CostModel(platform));
  const auto bare = plan::ResiliencePlan(12);
  const auto mid = plan::PlanBuilder(12).memory_checkpoint_at(6).build();
  const double e_bare = ev.expected_makespan(bare);
  const double e_mid = ev.expected_makespan(mid);
  EXPECT_TRUE(std::isfinite(e_bare));
  EXPECT_TRUE(std::isfinite(e_mid));
  EXPECT_GT(e_bare, chain.total_weight());
  EXPECT_GT(e_mid, chain.total_weight());
}

INSTANTIATE_TEST_SUITE_P(
    AllPlatformsAllPatterns, EvaluatorSanity,
    ::testing::Combine(::testing::Values("Hera", "Atlas", "Coastal",
                                         "CoastalSSD"),
                       ::testing::Values(chain::Pattern::kUniform,
                                         chain::Pattern::kDecrease,
                                         chain::Pattern::kHighLow)));

}  // namespace
}  // namespace chainckpt::analysis
