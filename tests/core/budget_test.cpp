#include "core/budget.hpp"

#include <gtest/gtest.h>

#include "analysis/evaluator.hpp"
#include "chain/patterns.hpp"
#include "core/dp_two_level.hpp"
#include "platform/registry.hpp"

namespace chainckpt::core {
namespace {

platform::CostModel hera_costs() {
  return platform::CostModel(platform::hera());
}

TEST(Budget, UnconstrainedBudgetReturnsTheOptimum) {
  const auto chain = chain::make_uniform(30, 25000.0);
  const auto free = optimize_two_level(chain, hera_costs());
  BudgetConstraint budget;  // no limits
  const auto result = optimize_with_budget(Algorithm::kADMVstar, chain,
                                           hera_costs(), budget);
  EXPECT_EQ(result.plan, free.plan);
  EXPECT_NEAR(result.expected_makespan, free.expected_makespan,
              1e-9 * free.expected_makespan);
  EXPECT_DOUBLE_EQ(result.disk_penalty, 0.0);
  EXPECT_DOUBLE_EQ(result.memory_penalty, 0.0);
}

TEST(Budget, SlackBudgetIsFreeToo) {
  // Unconstrained optimum uses 7 interior memory checkpoints at n = 30;
  // a budget of 10 must not change anything.
  const auto chain = chain::make_uniform(30, 25000.0);
  const auto free = optimize_two_level(chain, hera_costs());
  BudgetConstraint budget;
  budget.max_interior_memory = free.plan.interior_counts().memory + 3;
  const auto result = optimize_with_budget(Algorithm::kADMVstar, chain,
                                           hera_costs(), budget);
  EXPECT_EQ(result.plan, free.plan);
}

TEST(Budget, TightMemoryBudgetIsRespectedAndCosts) {
  const auto chain = chain::make_uniform(30, 25000.0);
  const auto free = optimize_two_level(chain, hera_costs());
  const std::size_t free_count = free.plan.interior_counts().memory;
  ASSERT_GT(free_count, 2u);
  BudgetConstraint budget;
  budget.max_interior_memory = 2;
  const auto result = optimize_with_budget(Algorithm::kADMVstar, chain,
                                           hera_costs(), budget);
  EXPECT_LE(result.plan.interior_counts().memory, 2u);
  EXPECT_GT(result.memory_penalty, 0.0);
  // Constrained value is worse than free, better than zero-checkpoint.
  EXPECT_GT(result.expected_makespan, free.expected_makespan);
  BudgetConstraint none;
  none.max_interior_memory = 0;
  const auto zero = optimize_with_budget(Algorithm::kADMVstar, chain,
                                         hera_costs(), none);
  EXPECT_EQ(zero.plan.interior_counts().memory, 0u);
  EXPECT_GE(zero.expected_makespan, result.expected_makespan);
}

TEST(Budget, DiskBudgetOnCheapDiskPlatform) {
  // With cheap disks the unconstrained ADMV* places interior disk
  // checkpoints (see the ablation bench); cap them at zero.
  platform::Platform p = platform::hera();
  p.c_disk = 30.0;
  p.r_disk = 30.0;
  const platform::CostModel costs(p);
  const auto chain = chain::make_uniform(50, 25000.0);
  const auto free = optimize_two_level(chain, costs);
  ASSERT_GT(free.plan.interior_counts().disk, 0u);
  BudgetConstraint budget;
  budget.max_interior_disk = 0;
  const auto result =
      optimize_with_budget(Algorithm::kADMVstar, chain, costs, budget);
  EXPECT_EQ(result.plan.interior_counts().disk, 0u);
  EXPECT_GT(result.expected_makespan, free.expected_makespan);
  // Memory checkpoints remain available and used.
  EXPECT_GT(result.plan.interior_counts().memory, 0u);
}

TEST(Budget, JointBudgetsHold) {
  platform::Platform p = platform::hera();
  p.c_disk = 30.0;
  p.r_disk = 30.0;
  const platform::CostModel costs(p);
  const auto chain = chain::make_uniform(40, 25000.0);
  BudgetConstraint budget;
  budget.max_interior_disk = 1;
  budget.max_interior_memory = 3;
  const auto result =
      optimize_with_budget(Algorithm::kADMVstar, chain, costs, budget);
  EXPECT_LE(result.plan.interior_counts().disk, 1u);
  EXPECT_LE(result.plan.interior_counts().memory, 3u);
}

TEST(Budget, LagrangianIsOptimalForItsOwnCount) {
  // Standard duality check: re-optimizing with the final penalty and
  // comparing against the constrained plan's count via the evaluator is
  // implicit; here we check the weaker but concrete property that the
  // budgeted plan beats naive truncation (dropping the last checkpoints
  // of the free plan).
  const auto chain = chain::make_uniform(30, 25000.0);
  const auto costs = hera_costs();
  BudgetConstraint budget;
  budget.max_interior_memory = 2;
  const auto smart =
      optimize_with_budget(Algorithm::kADMVstar, chain, costs, budget);

  auto truncated = optimize_two_level(chain, costs).plan;
  std::size_t kept = 0;
  for (std::size_t i = 1; i < chain.size(); ++i) {
    if (has_memory_checkpoint(truncated.action(i))) {
      if (kept >= 2) truncated.set_action(i, plan::Action::kGuaranteedVerif);
      ++kept;
    }
  }
  const analysis::PlanEvaluator evaluator(chain, costs);
  EXPECT_LE(smart.expected_makespan,
            evaluator.expected_makespan(truncated) * (1.0 + 1e-12));
}

TEST(Budget, WorksForAdmvWithPartials) {
  const auto chain = chain::make_uniform(25, 25000.0);
  BudgetConstraint budget;
  budget.max_interior_memory = 1;
  const auto result = optimize_with_budget(Algorithm::kADMV, chain,
                                           hera_costs(), budget);
  EXPECT_LE(result.plan.interior_counts().memory, 1u);
  // Partials are not budgeted and should pick up the slack.
  EXPECT_GT(result.plan.interior_counts().partial, 0u);
}

TEST(Budget, ZeroEverythingDegeneratesToVerificationsOnly) {
  // Both budgets at zero: only the mandatory final bundle and (free to
  // the budget) verifications remain.
  const auto chain = chain::make_uniform(20, 25000.0);
  BudgetConstraint budget;
  budget.max_interior_disk = 0;
  budget.max_interior_memory = 0;
  const auto result = optimize_with_budget(Algorithm::kADMVstar, chain,
                                           hera_costs(), budget);
  const auto counts = result.plan.interior_counts();
  EXPECT_EQ(counts.disk, 0u);
  EXPECT_EQ(counts.memory, 0u);
  EXPECT_GT(counts.guaranteed, 0u);  // detection still pays for itself
}

TEST(Budget, SingleTaskChainIsTriviallyFeasible) {
  const auto chain = chain::make_uniform(1, 25000.0);
  BudgetConstraint budget;
  budget.max_interior_disk = 0;
  budget.max_interior_memory = 0;
  const auto result = optimize_with_budget(Algorithm::kADMVstar, chain,
                                           hera_costs(), budget);
  EXPECT_EQ(result.plan.action(1), plan::Action::kDiskCheckpoint);
  EXPECT_DOUBLE_EQ(result.disk_penalty, 0.0);
}

TEST(Budget, RejectsNonDpAlgorithms) {
  const auto chain = chain::make_uniform(10, 25000.0);
  BudgetConstraint budget;
  EXPECT_THROW(optimize_with_budget(Algorithm::kPeriodic, chain,
                                    hera_costs(), budget),
               std::invalid_argument);
}

}  // namespace
}  // namespace chainckpt::core
