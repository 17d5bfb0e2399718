// Deep oracle battery for the monotonicity-pruned scans: brute force up
// to n = 12 and large Dense-vs-Pruned sweeps.  Minutes, not seconds, so
// the whole executable is gated behind CHAINCKPT_SLOW_TESTS=1 (it skips
// instantly otherwise, keeping the tier-1 `ctest` run fast) and carries
// the `slow` ctest label; the CI sanitizer job exports the variable and
// runs everything.
//
//   CHAINCKPT_SLOW_TESTS=1 ctest --test-dir build -L slow
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "../../bench/bench_common.hpp"
#include "analysis/evaluator.hpp"
#include "chain/patterns.hpp"
#include "core/brute_force.hpp"
#include "core/dp_partial.hpp"
#include "core/dp_single_level.hpp"
#include "core/dp_two_level.hpp"
#include "core/optimizer.hpp"
#include "platform/registry.hpp"
#include "util/rng.hpp"

namespace chainckpt::core {
namespace {

#define CHAINCKPT_REQUIRE_SLOW()                                       \
  if (std::getenv("CHAINCKPT_SLOW_TESTS") == nullptr) {                \
    GTEST_SKIP() << "deep oracle battery; set CHAINCKPT_SLOW_TESTS=1 " \
                    "(ctest label: slow)";                             \
  }

OptimizationResult solve_mode(Algorithm algorithm,
                              const chain::TaskChain& chain,
                              const platform::CostModel& costs,
                              ScanMode mode) {
  DpContext ctx(chain, costs);
  ctx.set_scan_mode(mode);
  return optimize(algorithm, ctx);
}

void expect_bitwise(Algorithm algorithm, const chain::TaskChain& chain,
                    const platform::CostModel& costs,
                    const std::string& label) {
  const auto dense = solve_mode(algorithm, chain, costs, ScanMode::kDense);
  const auto pruned =
      solve_mode(algorithm, chain, costs, ScanMode::kMonotonePruned);
  EXPECT_EQ(dense.expected_makespan, pruned.expected_makespan) << label;
  EXPECT_EQ(dense.plan.compact_string(), pruned.plan.compact_string())
      << label;
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
      expect_bitwise(Algorithm::kADMVstar, chain, costs, label);
      const auto dense =
          solve_mode(Algorithm::kADMVstar, chain, costs, ScanMode::kDense);
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
      expect_bitwise(Algorithm::kADMV, chain, costs, label);
      const auto dense =
          solve_mode(Algorithm::kADMV, chain, costs, ScanMode::kDense);
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

TEST(OraclePruningSlow, LargeChainsStayBitwiseAcrossRandomPlatforms) {
  CHAINCKPT_REQUIRE_SLOW();
  util::Xoshiro256 rng(util::Xoshiro256::stream(bench::kBenchSeed, 12)());
  for (int trial = 0; trial < 6; ++trial) {
    const auto platform =
        bench::random_platform(rng, "SlowBig_" + std::to_string(trial));
    const platform::CostModel costs(platform);
    const std::string label = platform.describe();
    expect_bitwise(Algorithm::kADVstar,
                   chain::make_random(400, 1e7, rng), costs,
                   label + " ADV*/400");
    expect_bitwise(Algorithm::kADMVstar,
                   chain::make_random(120, 3e6, rng), costs,
                   label + " ADMV*/120");
    if (trial < 3) {
      expect_bitwise(Algorithm::kADMV, chain::make_random(60, 1.5e6, rng),
                     costs, label + " ADMV/60");
    }
  }
}

}  // namespace
}  // namespace chainckpt::core
