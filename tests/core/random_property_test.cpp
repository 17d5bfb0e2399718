// Randomized dominance properties at sizes far beyond brute force:
// the DP optimum must never lose to any sampled valid plan of its class,
// and the monotonicity-pruned scan mode must reproduce the dense plans
// and objectives bit for bit across a 500-case random battery.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "../../bench/bench_common.hpp"
#include "analysis/evaluator.hpp"
#include "chain/patterns.hpp"
#include "core/dp_partial.hpp"
#include "core/dp_single_level.hpp"
#include "core/dp_two_level.hpp"
#include "core/optimizer.hpp"
#include "platform/registry.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace chainckpt::core {
namespace {

/// Draws a structurally valid random plan.  Action probabilities are
/// skewed toward kNone so the samples resemble plausible plans rather
/// than checkpoint-everything noise.
plan::ResiliencePlan random_plan(std::size_t n, util::Xoshiro256& rng,
                                 bool allow_partials) {
  plan::ResiliencePlan plan(n);
  for (std::size_t i = 1; i < n; ++i) {
    const double u = rng.uniform01();
    if (u < 0.55) continue;
    if (allow_partials && u < 0.75) {
      plan.set_action(i, plan::Action::kPartialVerif);
    } else if (u < 0.87) {
      plan.set_action(i, plan::Action::kGuaranteedVerif);
    } else if (u < 0.96) {
      plan.set_action(i, plan::Action::kMemoryCheckpoint);
    } else {
      plan.set_action(i, plan::Action::kDiskCheckpoint);
    }
  }
  return plan;
}

class RandomDominance : public ::testing::TestWithParam<std::string> {};

TEST_P(RandomDominance, TwoLevelDominatesSampledPlans) {
  const auto platform = platform::by_name(GetParam());
  const platform::CostModel costs(platform);
  util::Xoshiro256 rng(0xABCDEF);
  for (int trial = 0; trial < 4; ++trial) {
    const auto chain = chain::make_random(24, 25000.0, rng);
    const analysis::PlanEvaluator evaluator(chain, costs);
    const auto dp = optimize_two_level(chain, costs);
    for (int sample = 0; sample < 60; ++sample) {
      const auto candidate = random_plan(24, rng, /*allow_partials=*/false);
      const double value = evaluator.expected_makespan(
          candidate, analysis::FormulaMode::kTwoLevel);
      EXPECT_LE(dp.expected_makespan, value * (1.0 + 1e-12))
          << "trial " << trial << " sample " << sample << " plan "
          << candidate.compact_string();
    }
  }
}

TEST_P(RandomDominance, PartialDpDominatesSampledPlans) {
  const auto platform = platform::by_name(GetParam());
  const platform::CostModel costs(platform);
  util::Xoshiro256 rng(0x123456);
  for (int trial = 0; trial < 2; ++trial) {
    const auto chain = chain::make_random(18, 25000.0, rng);
    const analysis::PlanEvaluator evaluator(chain, costs);
    const auto dp = optimize_with_partial(chain, costs);
    for (int sample = 0; sample < 40; ++sample) {
      const auto candidate = random_plan(18, rng, /*allow_partials=*/true);
      const double value = evaluator.expected_makespan(
          candidate, analysis::FormulaMode::kPartialFramework);
      EXPECT_LE(dp.expected_makespan, value * (1.0 + 1e-12))
          << "trial " << trial << " sample " << sample << " plan "
          << candidate.compact_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Platforms, RandomDominance,
                         ::testing::Values("Hera", "Atlas", "Coastal",
                                           "CoastalSSD"));

void expect_same_scan(const ScanStats& a, const ScanStats& b,
                      const std::string& label) {
  EXPECT_EQ(a.dense_cells, b.dense_cells) << label;
  EXPECT_EQ(a.cells_scanned, b.cells_scanned) << label;
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.guard_checks, b.guard_checks) << label;
  EXPECT_EQ(a.guard_fallbacks, b.guard_fallbacks) << label;
  EXPECT_EQ(a.gated_rows, b.gated_rows) << label;
  EXPECT_EQ(a.order_fallback_rows, b.order_fallback_rows) << label;
  EXPECT_EQ(a.windowed_rows, b.windowed_rows) << label;
}

/// Determinism guard for the hot-path refactor: for random chains, every
/// algorithm must produce bitwise-identical expected makespans, identical
/// plans, and identical scan counters under forced-serial, default, and
/// oversubscribed parallelism (see the contract in util/parallel.hpp).
/// The pruned passes pin the counter paths: ADV* folds per-row slots,
/// ADMV* commits per slab into its checkpoint.
TEST(Determinism, SerialAndParallelRunsAgreeExactly) {
  util::Xoshiro256 rng(0xD5EED);
  for (const char* name : {"Hera", "Coastal"}) {
    const auto platform = platform::by_name(name);
    const platform::CostModel costs(platform);
    const auto chain = chain::make_random(20, 25000.0, rng);
    const std::size_t first_pruned = 3;

    const auto run_all = [&] {
      std::vector<OptimizationResult> results;
      results.push_back(optimize_single_level(chain, costs));
      results.push_back(optimize_two_level(chain, costs));
      results.push_back(optimize_with_partial(chain, costs));
      for (const Algorithm algorithm :
           {Algorithm::kADVstar, Algorithm::kADMVstar}) {
        DpContext ctx(chain, costs);
        ctx.set_scan_mode(ScanMode::kMonotonePruned);
        results.push_back(optimize(algorithm, ctx));
      }
      return results;
    };

    util::set_parallelism(1);
    const auto serial = run_all();
    util::set_parallelism(0);  // runtime default
    const auto dflt = run_all();
    util::set_parallelism(4);  // oversubscribed on small machines
    const auto wide = run_all();
    util::set_parallelism(0);

    for (std::size_t a = 0; a < serial.size(); ++a) {
      const std::string label =
          std::string(name) + " algorithm " + std::to_string(a);
      EXPECT_DOUBLE_EQ(serial[a].expected_makespan, dflt[a].expected_makespan)
          << label << " serial vs default";
      EXPECT_DOUBLE_EQ(serial[a].expected_makespan, wide[a].expected_makespan)
          << label << " serial vs 4 threads";
      EXPECT_EQ(serial[a].plan.compact_string(),
                dflt[a].plan.compact_string())
          << label << " plan serial vs default";
      EXPECT_EQ(serial[a].plan.compact_string(),
                wide[a].plan.compact_string())
          << label << " plan serial vs 4 threads";
      expect_same_scan(serial[a].scan, dflt[a].scan,
                       label + " scan serial vs default");
      expect_same_scan(serial[a].scan, wide[a].scan,
                       label + " scan serial vs 4 threads");
      if (a >= first_pruned) {
        EXPECT_GT(serial[a].scan.steps, 0u) << label << ": nothing windowed";
      }
    }
  }
}

/// One Dense-vs-Pruned equivalence case.  The coefficient tables are
/// built once and shared by both contexts (the BatchSolver borrow path),
/// so the comparison isolates the scan mode.
struct PrunedCase {
  Algorithm algorithm;
  std::size_t n;
};

ScanStats check_pruned_case(const PrunedCase& c,
                            const platform::CostModel& costs,
                            util::Xoshiro256& rng,
                            const std::string& label) {
  const auto chain =
      chain::make_random(c.n, 25000.0 * static_cast<double>(c.n), rng);
  auto table = std::make_shared<const chain::WeightTable>(
      chain, costs.lambda_f(), costs.lambda_s());
  auto seg = std::make_shared<const analysis::SegmentTables>(*table, costs);
  DpContext dense_ctx(chain, costs, table, seg);
  DpContext pruned_ctx(chain, costs, table, seg);
  pruned_ctx.set_scan_mode(ScanMode::kMonotonePruned);
  const auto dense = optimize(c.algorithm, dense_ctx);
  const auto pruned = optimize(c.algorithm, pruned_ctx);
  EXPECT_EQ(dense.expected_makespan, pruned.expected_makespan) << label;
  EXPECT_EQ(dense.plan.compact_string(), pruned.plan.compact_string())
      << label;
  EXPECT_EQ(dense.scan.steps, 0u) << label << ": dense mode kept counters";
  return pruned.scan;
}

TEST(PrunedEquivalence, FiveHundredRandomCasesBitwiseEqual) {
  // 500 randomized platform/chain draws spread over the three DPs and
  // n in {50, 200, 400} (the ADMV cases run at n <= 48 to keep the
  // O(n^6) battery inside the tier-1 budget; its larger sizes live in
  // oracle_pruning_slow_test.cpp).
  const struct {
    PrunedCase shape;
    int count;
  } buckets[] = {
      {{Algorithm::kADVstar, 50}, 200},
      {{Algorithm::kADMVstar, 50}, 160},
      {{Algorithm::kADMV, 32}, 64},
      {{Algorithm::kADVstar, 200}, 56},
      {{Algorithm::kADMVstar, 200}, 8},
      {{Algorithm::kADVstar, 400}, 6},
      {{Algorithm::kADMV, 48}, 6},
  };
  util::Xoshiro256 rng(util::Xoshiro256::stream(bench::kBenchSeed, 20)());
  int cases = 0;
  ScanStats total;
  for (const auto& bucket : buckets) {
    for (int i = 0; i < bucket.count; ++i, ++cases) {
      // Every 8th case exercises the per-position cost extension.
      const auto platform =
          bench::random_platform(rng, "Prop" + std::to_string(cases));
      const platform::CostModel costs =
          (cases % 8 == 7)
              ? bench::random_per_position_costs(platform, bucket.shape.n,
                                                 rng)
              : platform::CostModel(platform);
      total += check_pruned_case(
          bucket.shape, costs, rng,
          "case " + std::to_string(cases) + " " + platform.describe());
    }
  }
  EXPECT_EQ(cases, 500);
  // The mode must actually prune somewhere in the battery, not pass
  // vacuously with every row gated dense.
  EXPECT_LT(total.cells_scanned, total.dense_cells);
  EXPECT_GT(total.windowed_rows, 0u);
}

TEST(PrunedEquivalence, QuadrangleViolationEngagesFallbackAndStaysExact) {
  // Fabricated per-position verification costs with a cliff: V* huge
  // after task 8, near-zero after task 9.  The exvg stream then violates
  // the quadrangle inequality, verify_quadrangle() must report it, and
  // the pruned ADV*/ADMV* solves must gate the affected rows dense
  // (fallback counter > 0) while still matching the dense scan bit for
  // bit.  ADMV always scans dense and must match with zero counters.
  const std::size_t n = 16;
  const platform::Platform base = platform::hera();
  std::vector<double> c_disk(n, base.c_disk), c_mem(n, base.c_mem);
  std::vector<double> v_g(n, base.v_guaranteed), v_p(n, base.v_partial);
  v_g[7] = 5000.0;  // after task 8
  v_g[8] = 0.01;    // after task 9
  const platform::CostModel costs(base, c_disk, c_mem, v_g, v_p);
  const auto chain = chain::make_uniform(n, 25000.0);

  DpContext pruned_ctx(chain, costs);
  const auto& cert = pruned_ctx.seg_tables().verify_quadrangle();
  ASSERT_GT(cert.violating_cells, 0u)
      << "fabricated table no longer violates QI; rebuild the test";
  EXPECT_FALSE(cert.row_ok(0));
  EXPECT_LT(cert.worst_defect, 0.0);
  pruned_ctx.set_scan_mode(ScanMode::kMonotonePruned);

  DpContext dense_ctx(chain, costs);
  for (const Algorithm algorithm :
       {Algorithm::kADVstar, Algorithm::kADMVstar, Algorithm::kADMV}) {
    const auto dense = optimize(algorithm, dense_ctx);
    const auto pruned = optimize(algorithm, pruned_ctx);
    EXPECT_EQ(dense.expected_makespan, pruned.expected_makespan);
    EXPECT_EQ(dense.plan.compact_string(), pruned.plan.compact_string());
    if (algorithm == Algorithm::kADMV) {
      // ADMV ignores the scan mode: nothing is windowed, so no counters.
      EXPECT_EQ(pruned.scan.steps, 0u) << "ADMV ran a windowed scan";
    } else {
      EXPECT_GT(pruned.scan.gated_rows, 0u)
          << to_string(algorithm) << ": QI fallback did not engage";
    }
  }
}

TEST(RandomDominance, HoldsUnderRandomPerPositionCosts) {
  util::Xoshiro256 rng(777);
  const std::size_t n = 16;
  for (int trial = 0; trial < 3; ++trial) {
    const auto chain = chain::make_random(n, 25000.0, rng);
    std::vector<double> cd(n), cm(n), vg(n), vp(n);
    for (std::size_t i = 0; i < n; ++i) {
      cd[i] = 100.0 + 900.0 * rng.uniform01();
      cm[i] = 2.0 + 30.0 * rng.uniform01();
      vg[i] = 2.0 + 30.0 * rng.uniform01();
      vp[i] = vg[i] / 100.0;
    }
    const platform::CostModel costs(platform::hera(), cd, cm, vg, vp);
    const analysis::PlanEvaluator evaluator(chain, costs);
    const auto dp = optimize_two_level(chain, costs);
    for (int sample = 0; sample < 40; ++sample) {
      const auto candidate = random_plan(n, rng, false);
      EXPECT_LE(dp.expected_makespan,
                evaluator.expected_makespan(
                    candidate, analysis::FormulaMode::kTwoLevel) *
                    (1.0 + 1e-12))
          << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace chainckpt::core
