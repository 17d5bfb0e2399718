// Dense vs MonotonePruned vs exhaustive enumeration, across randomized
// platforms (C/R/V costs and error rates drawn from the seeded
// bench_common generators).  The pruned mode has no written optimality
// proof -- this battery, together with random_property_test.cpp and the
// slow-labelled deep variant, IS the safety argument: on every sampled
// configuration the pruned scans must reproduce the dense plans and
// objectives bit for bit, and both must match brute force.
#include <gtest/gtest.h>

#include <cstddef>
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

struct ModePair {
  OptimizationResult dense;
  OptimizationResult pruned;
};

/// Solves with both scan modes on shared coefficient tables and asserts
/// the bitwise contract before handing the dense result back.
ModePair solve_both(Algorithm algorithm, const chain::TaskChain& chain,
                    const platform::CostModel& costs,
                    const std::string& label) {
  DpContext dense_ctx(chain, costs);
  DpContext pruned_ctx(chain, costs);
  pruned_ctx.set_scan_mode(ScanMode::kMonotonePruned);
  ModePair pair{optimize(algorithm, dense_ctx),
                optimize(algorithm, pruned_ctx)};
  EXPECT_EQ(pair.dense.expected_makespan, pair.pruned.expected_makespan)
      << label << ": pruned objective diverged";
  EXPECT_EQ(pair.dense.plan.compact_string(),
            pair.pruned.plan.compact_string())
      << label << ": pruned plan diverged";
  return pair;
}

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
      const auto pair =
          solve_both(Algorithm::kADMVstar, chain, costs, label);
      BruteForceOptions options;
      options.allow_partial = false;
      options.mode = analysis::FormulaMode::kTwoLevel;
      const auto bf = brute_force_optimize(chain, costs, options);
      EXPECT_NEAR(pair.dense.expected_makespan, bf.expected_makespan,
                  1e-9 * bf.expected_makespan)
          << label;
    }
    {
      const auto pair = solve_both(Algorithm::kADVstar, chain, costs, label);
      BruteForceOptions options;
      options.allow_memory = false;
      options.allow_partial = false;
      options.mode = analysis::FormulaMode::kTwoLevel;
      const auto bf = brute_force_optimize(chain, costs, options);
      EXPECT_NEAR(pair.dense.expected_makespan, bf.expected_makespan,
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
    const auto pair = solve_both(Algorithm::kADMV, chain, costs, label);
    BruteForceOptions options;
    options.allow_partial = true;
    options.mode = analysis::FormulaMode::kPartialFramework;
    const auto bf = brute_force_optimize(chain, costs, options);
    EXPECT_NEAR(pair.dense.expected_makespan, bf.expected_makespan,
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
      const auto pair =
          solve_both(Algorithm::kADMVstar, chain, costs, label);
      BruteForceOptions options;
      options.allow_partial = false;
      options.mode = analysis::FormulaMode::kTwoLevel;
      const auto bf = brute_force_optimize(chain, costs, options);
      EXPECT_NEAR(pair.dense.expected_makespan, bf.expected_makespan,
                  1e-9 * bf.expected_makespan)
          << label;
    }
    {
      const auto pair = solve_both(Algorithm::kADMV, chain, costs, label);
      BruteForceOptions options;
      options.allow_partial = true;
      options.mode = analysis::FormulaMode::kPartialFramework;
      const auto bf = brute_force_optimize(chain, costs, options);
      EXPECT_NEAR(pair.dense.expected_makespan, bf.expected_makespan,
                  1e-9 * bf.expected_makespan)
          << label;
    }
  }
}

TEST(OraclePruning, AllAlgorithmsBitwiseAtN12) {
  // n = 12 is past the fast brute-force budget; the Dense-vs-Pruned
  // bitwise contract still gets checked for all three DPs (the deep
  // brute-force variants live in oracle_pruning_slow_test.cpp).
  util::Xoshiro256 rng(util::Xoshiro256::stream(bench::kBenchSeed, 3)());
  for (int trial = 0; trial < 4; ++trial) {
    const auto platform =
        bench::random_platform(rng, "Oracle12_" + std::to_string(trial));
    const platform::CostModel costs(platform);
    const auto chain = chain::make_random(12, 300000.0, rng);
    const std::string label = platform.describe();
    solve_both(Algorithm::kADVstar, chain, costs, label);
    solve_both(Algorithm::kADMVstar, chain, costs, label);
    solve_both(Algorithm::kADMV, chain, costs, label);
  }
}

TEST(OraclePruning, PaperPlatformsPruneWithoutFallbacks) {
  // On the four Table I platforms the QI certificate passes and the
  // boundary guard never fires -- the pruned mode actually prunes there.
  for (const char* name : {"Hera", "Atlas", "Coastal", "CoastalSSD"}) {
    const platform::CostModel costs(platform::by_name(name));
    const auto chain = chain::make_uniform(40, 25000.0);
    DpContext ctx(chain, costs);
    EXPECT_TRUE(ctx.seg_tables().verify_quadrangle().all_ok()) << name;
    ctx.set_scan_mode(ScanMode::kMonotonePruned);
    const auto result = optimize_two_level(ctx);
    EXPECT_EQ(result.scan.gated_rows, 0u) << name;
    EXPECT_EQ(result.scan.guard_fallbacks, 0u) << name;
    EXPECT_LT(result.scan.cells_scanned, result.scan.dense_cells) << name;
  }
}

}  // namespace
}  // namespace chainckpt::core
