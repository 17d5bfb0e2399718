#include "core/dp_two_level.hpp"

#include <gtest/gtest.h>

#include "analysis/evaluator.hpp"
#include "chain/patterns.hpp"
#include "core/dp_single_level.hpp"
#include "platform/registry.hpp"
#include "util/parallel.hpp"

namespace chainckpt::core {
namespace {

platform::CostModel hera_costs() {
  return platform::CostModel(platform::hera());
}

TEST(TwoLevelDp, PlanValidAndPartialFree) {
  const auto chain = chain::make_uniform(25, 25000.0);
  const auto result = optimize_two_level(chain, hera_costs());
  result.plan.validate();
  EXPECT_FALSE(result.plan.uses_partial_verifications());
}

TEST(TwoLevelDp, ValueMatchesEvaluatorOnExtractedPlan) {
  for (auto pattern : {chain::Pattern::kUniform, chain::Pattern::kDecrease,
                       chain::Pattern::kHighLow}) {
    const auto chain = chain::make_pattern(pattern, 18, 25000.0);
    const auto result = optimize_two_level(chain, hera_costs());
    const analysis::PlanEvaluator ev(chain, hera_costs());
    EXPECT_NEAR(ev.expected_makespan(result.plan,
                                     analysis::FormulaMode::kTwoLevel),
                result.expected_makespan,
                1e-9 * result.expected_makespan)
        << chain::to_string(pattern);
  }
}

TEST(TwoLevelDp, NeverWorseThanSingleLevel) {
  // ADV*'s plan space is a subset of ADMV*'s.
  for (const auto& platform : platform::table1_platforms()) {
    const platform::CostModel costs(platform);
    for (std::size_t n : {1u, 5u, 20u, 40u}) {
      const auto chain = chain::make_uniform(n, 25000.0);
      const auto two = optimize_two_level(chain, costs);
      const auto one = optimize_single_level(chain, costs);
      EXPECT_LE(two.expected_makespan,
                one.expected_makespan * (1.0 + 1e-12))
          << platform.name << " n=" << n;
    }
  }
}

TEST(TwoLevelDp, DeterministicAcrossThreadCounts) {
  const auto chain = chain::make_decrease(30, 25000.0);
  util::set_parallelism(1);
  const auto serial = optimize_two_level(chain, hera_costs());
  util::set_parallelism(8);
  const auto parallel = optimize_two_level(chain, hera_costs());
  util::set_parallelism(0);
  EXPECT_EQ(serial.expected_makespan, parallel.expected_makespan);
  EXPECT_EQ(serial.plan, parallel.plan);
}

TEST(TwoLevelDp, CheapMemoryCheckpointsGetUsed) {
  // On Hera (cheap C_M, expensive C_D) the optimal n=50 uniform plan uses
  // interior memory checkpoints but no interior disk checkpoints --
  // exactly the paper's Figure 6 observation.
  const auto chain = chain::make_uniform(50, 25000.0);
  const auto result = optimize_two_level(chain, hera_costs());
  const auto counts = result.plan.interior_counts();
  EXPECT_GT(counts.memory, 0u);
  EXPECT_EQ(counts.disk, 0u);
}

TEST(TwoLevelDp, ZeroErrorRatesPlaceNothingInterior) {
  platform::Platform p = platform::hera();
  p.lambda_f = 0.0;
  p.lambda_s = 0.0;
  const auto chain = chain::make_uniform(15, 25000.0);
  const auto result = optimize_two_level(chain, platform::CostModel(p));
  const auto counts = result.plan.interior_counts();
  EXPECT_EQ(counts.disk + counts.memory + counts.guaranteed, 0u);
  EXPECT_NEAR(result.expected_makespan,
              25000.0 + p.v_guaranteed + p.c_mem + p.c_disk, 1e-9);
}

TEST(TwoLevelDp, PerPositionCostsSteerPlacement) {
  // Make the memory checkpoint after task 5 free and all others huge: the
  // optimizer must pick position 5 if it places any interior checkpoint.
  platform::Platform p = platform::hera();
  const std::size_t n = 10;
  std::vector<double> c_disk(n, p.c_disk);
  std::vector<double> c_mem(n, 1e6);
  std::vector<double> v_g(n, p.v_guaranteed);
  std::vector<double> v_p(n, p.v_partial);
  c_mem[4] = 0.0;   // position 5
  c_mem[9] = p.c_mem;  // final bundle stays sane
  const platform::CostModel costs(p, c_disk, c_mem, v_g, v_p);
  const auto chain = chain::make_uniform(n, 25000.0);
  const auto result = optimize_two_level(chain, costs);
  const auto mems = result.plan.memory_positions();
  for (std::size_t pos : mems) {
    EXPECT_TRUE(pos == 5 || pos == 10) << "unexpected memory ckpt at "
                                       << pos;
  }
  EXPECT_NE(std::find(mems.begin(), mems.end(), 5u), mems.end());
}

TEST(TwoLevelDp, MakespanDecreasesWithTaskGranularityEventually) {
  // Paper Figure 5: after the small-n spike, more tasks help (more
  // placement opportunities).
  const auto costs = hera_costs();
  const auto at = [&](std::size_t n) {
    return optimize_two_level(chain::make_uniform(n, 25000.0), costs)
        .expected_makespan;
  };
  EXPECT_GT(at(2), at(10));
  EXPECT_GE(at(10), at(50) * 0.999);
}

}  // namespace
}  // namespace chainckpt::core
