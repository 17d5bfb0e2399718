// Dense DPs vs exhaustive enumeration, across randomized platforms
// (C/R/V costs and error rates drawn from the seeded bench_common
// generators): on every sampled configuration each DP's objective must
// match brute force.  (The suite's name is historical: every DP runs the
// dense scan.)  Deeper sizes live in oracle_pruning_slow_test.cpp.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "../../bench/bench_common.hpp"
#include "analysis/evaluator.hpp"
#include "chain/patterns.hpp"
#include "core/brute_force.hpp"
#include "core/optimizer.hpp"
#include "util/rng.hpp"

namespace chainckpt::core {
namespace {

TEST(OraclePruning, LevelDpsMatchBruteForceOnRandomPlatforms) {
  util::Xoshiro256 rng(bench::kBenchSeed);
  const std::size_t sizes[] = {5, 6, 8};
  for (int trial = 0; trial < 8; ++trial) {
    const auto platform =
        bench::random_platform(rng, "Oracle" + std::to_string(trial));
    const platform::CostModel costs(platform);
    const std::size_t n = sizes[trial % 3];
    const auto chain = chain::make_random(n, 25000.0 * n, rng);
    const std::string label = platform.describe();
    {
      const auto dense = optimize(Algorithm::kADMVstar, chain, costs);
      BruteForceOptions options;
      options.allow_partial = false;
      options.mode = analysis::FormulaMode::kTwoLevel;
      const auto bf = brute_force_optimize(chain, costs, options);
      EXPECT_NEAR(dense.expected_makespan, bf.expected_makespan,
                  1e-9 * bf.expected_makespan)
          << label;
    }
    {
      const auto dense = optimize(Algorithm::kADVstar, chain, costs);
      BruteForceOptions options;
      options.allow_memory = false;
      options.allow_partial = false;
      options.mode = analysis::FormulaMode::kTwoLevel;
      const auto bf = brute_force_optimize(chain, costs, options);
      EXPECT_NEAR(dense.expected_makespan, bf.expected_makespan,
                  1e-9 * bf.expected_makespan)
          << label;
    }
  }
}

TEST(OraclePruning, PartialDpMatchesBruteForceOnRandomPlatforms) {
  util::Xoshiro256 rng(util::Xoshiro256::stream(bench::kBenchSeed, 1)());
  for (int trial = 0; trial < 6; ++trial) {
    const auto platform =
        bench::random_platform(rng, "OracleP" + std::to_string(trial));
    const platform::CostModel costs(platform);
    const std::size_t n = 5 + static_cast<std::size_t>(trial % 2);
    const auto chain = chain::make_random(n, 25000.0 * n, rng);
    const std::string label = platform.describe();
    const auto dense = optimize(Algorithm::kADMV, chain, costs);
    BruteForceOptions options;
    options.allow_partial = true;
    options.mode = analysis::FormulaMode::kPartialFramework;
    const auto bf = brute_force_optimize(chain, costs, options);
    EXPECT_NEAR(dense.expected_makespan, bf.expected_makespan,
                1e-9 * bf.expected_makespan)
        << label;
  }
}

TEST(OraclePruning, RandomPerPositionCostsMatchBruteForce) {
  util::Xoshiro256 rng(util::Xoshiro256::stream(bench::kBenchSeed, 2)());
  for (int trial = 0; trial < 4; ++trial) {
    const auto platform =
        bench::random_platform(rng, "OracleC" + std::to_string(trial));
    const std::size_t n = 6;
    const auto costs = bench::random_per_position_costs(platform, n, rng);
    const auto chain = chain::make_random(n, 25000.0 * n, rng);
    const std::string label = platform.describe() + " per-position";
    {
      const auto dense = optimize(Algorithm::kADMVstar, chain, costs);
      BruteForceOptions options;
      options.allow_partial = false;
      options.mode = analysis::FormulaMode::kTwoLevel;
      const auto bf = brute_force_optimize(chain, costs, options);
      EXPECT_NEAR(dense.expected_makespan, bf.expected_makespan,
                  1e-9 * bf.expected_makespan)
          << label;
    }
    {
      const auto dense = optimize(Algorithm::kADMV, chain, costs);
      BruteForceOptions options;
      options.allow_partial = true;
      options.mode = analysis::FormulaMode::kPartialFramework;
      const auto bf = brute_force_optimize(chain, costs, options);
      EXPECT_NEAR(dense.expected_makespan, bf.expected_makespan,
                  1e-9 * bf.expected_makespan)
          << label;
    }
  }
}

}  // namespace
}  // namespace chainckpt::core
