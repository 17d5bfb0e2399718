// Randomized dominance properties at sizes far beyond brute force: the
// DP optimum must never lose to any sampled valid plan of its class.
// Plus the determinism guard: plans, objectives and scan counters do not
// depend on the thread count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/evaluator.hpp"
#include "chain/patterns.hpp"
#include "core/dp_partial.hpp"
#include "core/dp_single_level.hpp"
#include "core/dp_two_level.hpp"
#include "core/optimizer.hpp"
#include "platform/registry.hpp"
#include "scan_counts.hpp"
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
}

/// Determinism guard for the hot-path refactor: for random chains, every
/// algorithm must produce bitwise-identical expected makespans, identical
/// plans, and identical scan counters under forced-serial, default, and
/// oversubscribed parallelism (see the contract in util/parallel.hpp).
/// The counters are pinned to each DP's closed form at two chain lengths:
/// walked loop by loop (scan_counts.hpp) and, for the level DPs, as
/// literals.
TEST(Determinism, SerialAndParallelRunsAgreeExactly) {
  util::Xoshiro256 rng(0xD5EED);
  const Algorithm algorithms[] = {Algorithm::kADVstar, Algorithm::kADMVstar,
                                  Algorithm::kADMV, Algorithm::kAD};
  // Level-DP counters {steps, cells}: n(n+1)(n+2)/6 + n(n+1)/2 and
  // n(n+1)(n+2)(n+3)/24 + n(n+1)(n+2)/6.
  const struct {
    std::size_t n;
    std::uint64_t level_steps;
    std::uint64_t level_cells;
  } sizes[] = {{20, 1750, 10395}, {7, 112, 294}};
  for (const auto& size : sizes) {
    for (const char* name : {"Hera", "Coastal"}) {
      const auto platform = platform::by_name(name);
      const platform::CostModel costs(platform);
      const auto chain = chain::make_random(size.n, 25000.0, rng);

      const auto run_all = [&] {
        std::vector<OptimizationResult> results;
        results.push_back(optimize_single_level(chain, costs));
        results.push_back(optimize_two_level(chain, costs));
        results.push_back(optimize_with_partial(chain, costs));
        results.push_back(optimize_single_level(
            chain, costs, {.allow_extra_verifications = false}));
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
        const Algorithm algorithm = algorithms[a];
        const std::string label = std::string(name) + " n=" +
                                  std::to_string(size.n) + " " +
                                  to_string(algorithm);
        EXPECT_DOUBLE_EQ(serial[a].expected_makespan,
                         dflt[a].expected_makespan)
            << label << " serial vs default";
        EXPECT_DOUBLE_EQ(serial[a].expected_makespan,
                         wide[a].expected_makespan)
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
        expect_same_scan(serial[a].scan,
                         walked_scan_stats(algorithm, serial[a].plan),
                         label + " scan vs walked loops");
        if (algorithm == Algorithm::kADMVstar ||
            algorithm == Algorithm::kADMV) {
          EXPECT_EQ(serial[a].scan.steps, size.level_steps) << label;
          EXPECT_EQ(serial[a].scan.dense_cells, size.level_cells) << label;
        } else {
          // One step per right endpoint of every streamed row, plus the
          // re-streamed disk segments, which partition [0, n].
          EXPECT_EQ(serial[a].scan.steps,
                    size.n * (size.n + 1) / 2 + size.n)
              << label;
        }
      }
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
