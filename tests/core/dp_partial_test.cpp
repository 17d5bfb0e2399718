#include "core/dp_partial.hpp"

#include <gtest/gtest.h>

#include "analysis/evaluator.hpp"
#include "chain/patterns.hpp"
#include "core/dp_two_level.hpp"
#include "platform/registry.hpp"
#include "util/parallel.hpp"

namespace chainckpt::core {
namespace {

platform::CostModel costs_of(const platform::Platform& p) {
  return platform::CostModel(p);
}

TEST(PartialDp, PlanIsStructurallyValid) {
  const auto chain = chain::make_uniform(20, 25000.0);
  const auto result =
      optimize_with_partial(chain, costs_of(platform::hera()));
  result.plan.validate();
}

TEST(PartialDp, ValueMatchesEvaluatorOnExtractedPlan) {
  // The reconstructed plan (including partial positions recovered by
  // re-running the inner DP) must score exactly the DP objective under the
  // Section III-B framework.
  for (const auto& platform : platform::table1_platforms()) {
    const auto chain = chain::make_uniform(22, 25000.0);
    const auto result = optimize_with_partial(chain, costs_of(platform));
    const analysis::PlanEvaluator ev(chain, costs_of(platform));
    EXPECT_NEAR(
        ev.expected_makespan(result.plan,
                             analysis::FormulaMode::kPartialFramework),
        result.expected_makespan, 1e-9 * result.expected_makespan)
        << platform.name;
  }
}

TEST(PartialDp, CheapPartialsAreUsedWhenSilentRateIsHigh) {
  // Atlas has the highest silent-error rate; at n = 50 the paper reports
  // ADMV placing partial verifications on it.
  const auto chain = chain::make_uniform(50, 25000.0);
  const auto result =
      optimize_with_partial(chain, costs_of(platform::atlas()));
  EXPECT_TRUE(result.plan.uses_partial_verifications());
}

TEST(PartialDp, ZeroRecallPartialsAreEssentiallyUseless) {
  // recall = 0 makes partial verifications pure overhead in reality.  The
  // Section III-B accounting can still let an isolated spurious partial
  // through (its mispricing is the documented (V*-V)-order nuance; Monte-
  // Carlo confirms the plans are equivalent in truth), so the honest
  // invariants are: almost no partials, and an objective within a hair of
  // ADMV*'s.
  platform::Platform p = platform::hera();
  p.recall = 0.0;
  const auto chain = chain::make_uniform(25, 25000.0);
  const auto admv = optimize_with_partial(chain, costs_of(p));
  const auto admv_star = optimize_two_level(chain, costs_of(p));
  EXPECT_LE(admv.plan.interior_counts().partial, 2u);
  EXPECT_NEAR(admv.expected_makespan, admv_star.expected_makespan,
              1e-4 * admv_star.expected_makespan);
}

TEST(PartialDp, ExpensiveZeroRecallPartialsAreNeverPlaced) {
  // With zero recall AND guaranteed-verification price, a partial is
  // strictly dominated; even the framework accounting cannot justify it.
  platform::Platform p = platform::hera();
  p.recall = 0.0;
  p.v_partial = p.v_guaranteed;
  const auto chain = chain::make_uniform(25, 25000.0);
  const auto result = optimize_with_partial(chain, costs_of(p));
  EXPECT_FALSE(result.plan.uses_partial_verifications());
}

TEST(PartialDp, FreePerfectPartialsReplaceGuaranteedVerifications) {
  // With recall 1 and zero cost, a partial verification dominates a
  // guaranteed one wherever a bare verification would go.
  platform::Platform p = platform::hera();
  p.recall = 1.0;
  p.v_partial = 0.0;
  const auto chain = chain::make_uniform(25, 25000.0);
  const auto result = optimize_with_partial(chain, costs_of(p));
  EXPECT_TRUE(result.plan.uses_partial_verifications());
  // No interior *bare* guaranteed verifications should survive: positions
  // with V* should all carry checkpoints.
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_NE(result.plan.action(i), plan::Action::kGuaranteedVerif)
        << "bare V* at " << i;
  }
}

TEST(PartialDp, DeterministicAcrossThreadCounts) {
  const auto chain = chain::make_highlow(24, 25000.0);
  const auto costs = costs_of(platform::coastal_ssd());
  util::set_parallelism(1);
  const auto serial = optimize_with_partial(chain, costs);
  util::set_parallelism(8);
  const auto parallel = optimize_with_partial(chain, costs);
  util::set_parallelism(0);
  EXPECT_EQ(serial.expected_makespan, parallel.expected_makespan);
  EXPECT_EQ(serial.plan, parallel.plan);
}

TEST(PartialDp, TracksTwoLevelWhenPartialsAreDisabledByPrice) {
  // Partial verifications as costly as guaranteed ones with lower recall
  // are never chosen, and the ADMV optimum coincides with ADMV*'s placement
  // (up to the Section III-B accounting term on the objective).
  platform::Platform p = platform::hera();
  p.v_partial = p.v_guaranteed;
  const auto chain = chain::make_uniform(20, 25000.0);
  const auto admv = optimize_with_partial(chain, costs_of(p));
  const auto admv_star = optimize_two_level(chain, costs_of(p));
  EXPECT_FALSE(admv.plan.uses_partial_verifications());
  EXPECT_EQ(admv.plan, admv_star.plan);
}

TEST(PartialDp, PartialsLieStrictlyBetweenGuaranteedPoints) {
  const auto chain = chain::make_uniform(50, 25000.0);
  const auto result =
      optimize_with_partial(chain, costs_of(platform::hera()));
  // Structural sanity of reconstruction: partial positions never collide
  // with guaranteed/checkpoint positions (enum makes collision impossible)
  // and are interior.
  for (std::size_t pos : result.plan.partial_positions()) {
    EXPECT_GE(pos, 1u);
    EXPECT_LT(pos, 50u);
  }
  EXPECT_TRUE(result.plan.uses_partial_verifications());
}

TEST(PartialDp, SingleTaskDegeneratesToFinalBundle) {
  const auto chain = chain::make_uniform(1, 25000.0);
  const auto result =
      optimize_with_partial(chain, costs_of(platform::hera()));
  EXPECT_EQ(result.plan.action(1), plan::Action::kDiskCheckpoint);
}

}  // namespace
}  // namespace chainckpt::core
