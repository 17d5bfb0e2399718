// Deep oracle battery for the dense DPs: brute force up to n = 12.
// Minutes, not seconds, so the whole executable is gated behind
// CHAINCKPT_SLOW_TESTS=1 (it skips instantly otherwise, keeping the
// tier-1 `ctest` run fast) and carries the `slow` ctest label; the CI
// sanitizer job exports the variable and runs everything.
//
//   CHAINCKPT_SLOW_TESTS=1 ctest --test-dir build -L slow
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "../../bench/bench_common.hpp"
#include "analysis/evaluator.hpp"
#include "chain/patterns.hpp"
#include "core/brute_force.hpp"
#include "core/optimizer.hpp"
#include "util/rng.hpp"

namespace chainckpt::core {
namespace {

#define CHAINCKPT_REQUIRE_SLOW()                                       \
  if (std::getenv("CHAINCKPT_SLOW_TESTS") == nullptr) {                \
    GTEST_SKIP() << "deep oracle battery; set CHAINCKPT_SLOW_TESTS=1 " \
                    "(ctest label: slow)";                             \
  }

TEST(OraclePruningSlow, TwoLevelMatchesBruteForceUpToN12) {
  CHAINCKPT_REQUIRE_SLOW();
  util::Xoshiro256 rng(util::Xoshiro256::stream(bench::kBenchSeed, 10)());
  for (const std::size_t n : {10u, 12u}) {
    for (int trial = 0; trial < 2; ++trial) {
      const auto platform = bench::random_platform(
          rng, "Slow2L_" + std::to_string(n) + "_" + std::to_string(trial));
      const platform::CostModel costs(platform);
      const auto chain = chain::make_random(n, 25000.0 * n, rng);
      const std::string label = platform.describe();
      const auto dense = optimize(Algorithm::kADMVstar, chain, costs);
      BruteForceOptions options;
      options.allow_partial = false;
      options.mode = analysis::FormulaMode::kTwoLevel;
      const auto bf = brute_force_optimize(chain, costs, options);
      EXPECT_NEAR(dense.expected_makespan, bf.expected_makespan,
                  1e-9 * bf.expected_makespan)
          << label;
    }
  }
}

TEST(OraclePruningSlow, PartialMatchesBruteForceUpToN9) {
  CHAINCKPT_REQUIRE_SLOW();
  util::Xoshiro256 rng(util::Xoshiro256::stream(bench::kBenchSeed, 11)());
  for (const std::size_t n : {8u, 9u}) {
    for (int trial = 0; trial < 2; ++trial) {
      const auto platform = bench::random_platform(
          rng, "SlowP_" + std::to_string(n) + "_" + std::to_string(trial));
      const platform::CostModel costs(platform);
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
}

}  // namespace
}  // namespace chainckpt::core
