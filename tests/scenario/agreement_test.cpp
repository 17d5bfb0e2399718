// Sim-vs-DP agreement property battery.
//
// The tier-1 cells are small and fast (seconds): in-model regimes
// (exponential failures, honest recall -- including recall < 1, which the
// DP prices correctly) must land inside the flagging interval; the
// assumption-breaking regimes (heavy-tailed Weibull, modeled-vs-actual
// recall mismatch) must take the flagged-divergence path instead of being
// silently averaged.  The deep sweep over every in-model matrix cell
// rides in matrix_slow_test.cpp (ctest label: slow).
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include "scenario/matrix.hpp"
#include "scenario/spec.hpp"

namespace chainckpt::scenario {
namespace {

ScenarioSpec base_cell(const std::string& name) {
  ScenarioSpec spec;
  spec.name = name;
  spec.seed = derive_cell_seed(0xA900ULL, name);
  spec.chain.n = 16;
  spec.failure.rate_scale = 25.0;
  spec.replicas = 2000;
  return spec;
}

TEST(Agreement, ExponentialHonestCellsAgreeWithinCi) {
  for (double recall : {1.0, 0.8, 0.5}) {
    ScenarioSpec spec = base_cell("agree-exp-r" + std::to_string(recall));
    spec.failure.modeled_recall = recall;
    spec.failure.actual_recall = recall;
    ASSERT_TRUE(spec.failure.assumptions_hold());
    const CellReport cell = run_cell(spec);
    EXPECT_TRUE(cell.assumptions_hold);
    EXPECT_FALSE(cell.flagged);
    EXPECT_FALSE(cell.diverged) << "recall " << recall;
    EXPECT_TRUE(cell.ok);
    ASSERT_EQ(cell.sim.size(), spec.algorithms.size());
    for (const SimLaneResult& lane : cell.sim) {
      EXPECT_TRUE(lane.within_ci)
          << lane.algorithm << " gap " << lane.relative_gap << " ("
          << lane.gap_sigmas << " sigmas)";
      EXPECT_GT(lane.sim_mean, 0.0);
      EXPECT_EQ(lane.replicas, spec.replicas);
    }
    for (const DpLaneResult& lane : cell.dp) {
      EXPECT_TRUE(lane.configs_identical) << lane.algorithm;
      EXPECT_GE(lane.configs, 3u);
    }
  }
}

TEST(Agreement, HeavyTailedCellIsFlaggedAndDiverges) {
  ScenarioSpec spec = base_cell("agree-weibull");
  spec.failure.law = FailureLaw::kWeibull;
  spec.failure.weibull_shape = 0.5;
  spec.failure.modeled_recall = 0.8;
  spec.failure.actual_recall = 0.8;
  ASSERT_FALSE(spec.failure.assumptions_hold());
  const CellReport cell = run_cell(spec);
  EXPECT_FALSE(cell.assumptions_hold);
  EXPECT_TRUE(cell.flagged);
  // shape 0.5 at amplified rates: the gap is tens of percent -- far
  // outside any CI -- so the divergence must be MEASURED and recorded...
  EXPECT_TRUE(cell.diverged);
  for (const SimLaneResult& lane : cell.sim) {
    EXPECT_FALSE(lane.within_ci) << lane.algorithm;
    EXPECT_GT(lane.relative_gap, 0.05) << lane.algorithm;
  }
  // ...while the cell stays ok: flagged cells are EXPECTED to diverge;
  // the failure mode the battery guards against is diverged && !flagged.
  EXPECT_TRUE(cell.ok);
}

TEST(Agreement, WeibullPlannedHonestCellsAgreeWithinCi) {
  // The heavy-tail planning mode: when the DP optimizes under the SAME
  // Weibull law the injector draws from (plan_under_law), the cell is
  // back in-model -- honest agreement within the CI, not a flagged
  // divergence.  This is the tentpole acceptance cell: the exact regime
  // HeavyTailedCellIsFlaggedAndDiverges shows breaking the exponential
  // planner is healed by planning under the law.
  for (double shape : {0.7, 0.5}) {
    ScenarioSpec spec = base_cell("agree-weibull-planned-k" +
                                  std::to_string(shape));
    spec.failure.law = FailureLaw::kWeibull;
    spec.failure.weibull_shape = shape;
    spec.failure.plan_under_law = true;
    spec.failure.modeled_recall = 0.8;
    spec.failure.actual_recall = 0.8;
    ASSERT_TRUE(spec.failure.assumptions_hold());
    const CellReport cell = run_cell(spec);
    EXPECT_TRUE(cell.assumptions_hold) << "shape " << shape;
    EXPECT_FALSE(cell.flagged) << "shape " << shape;
    EXPECT_FALSE(cell.diverged) << "shape " << shape;
    EXPECT_TRUE(cell.ok) << "shape " << shape;
    EXPECT_EQ(cell.planning_law,
              "weibull k=" + std::to_string(shape).substr(0, 3));
    for (const SimLaneResult& lane : cell.sim) {
      EXPECT_TRUE(lane.within_ci)
          << lane.algorithm << " shape " << shape << " gap "
          << lane.relative_gap << " (" << lane.gap_sigmas << " sigmas)";
      EXPECT_GT(lane.sim_mean, 0.0);
    }
    for (const DpLaneResult& lane : cell.dp) {
      EXPECT_TRUE(lane.configs_identical) << lane.algorithm;
      // The restart-vs-checkpoint comparison: under a heavy tail the
      // restart-only strategy is dramatically worse than the optimized
      // plan, and the ratio must be recorded on the reference config.
      EXPECT_GT(lane.restart_ratio, 1.0) << lane.algorithm;
    }
  }
}

TEST(Agreement, RecallMismatchIsFlaggedNeverAveraged) {
  ScenarioSpec spec = base_cell("agree-mismatch");
  spec.failure.modeled_recall = 0.95;
  spec.failure.actual_recall = 0.5;
  ASSERT_FALSE(spec.failure.assumptions_hold());
  const CellReport cell = run_cell(spec);
  EXPECT_FALSE(cell.assumptions_hold);
  EXPECT_TRUE(cell.flagged);
  EXPECT_TRUE(cell.ok);
  // The mismatch only binds when the plan carries partial verifications;
  // either way the gap is recorded per algorithm, never folded into an
  // "agreement" verdict.
  for (const SimLaneResult& lane : cell.sim) {
    EXPECT_GT(lane.sim_mean, 0.0);
    EXPECT_GE(lane.sim_stderr, 0.0);
  }
}

TEST(Agreement, DivergenceSetsAreDisjointInTheSummary) {
  // One honest cell + one broken cell through run_matrix: the summary
  // must route the divergence into diverged_flagged, keep
  // diverged_in_model at zero, and count flags correctly.
  ScenarioSpec honest = base_cell("agree-summary-honest");
  honest.failure.modeled_recall = 0.8;
  honest.failure.actual_recall = 0.8;
  ScenarioSpec broken = base_cell("agree-summary-broken");
  broken.failure.law = FailureLaw::kWeibull;
  broken.failure.weibull_shape = 0.5;
  const ScenarioReport report = run_matrix({honest, broken});
  EXPECT_EQ(report.summary.cells, 2u);
  EXPECT_EQ(report.summary.ok_cells, 2u);
  EXPECT_EQ(report.summary.flagged_cells, 1u);
  EXPECT_EQ(report.summary.diverged_flagged, 1u);
  EXPECT_EQ(report.summary.diverged_in_model, 0u);
  EXPECT_EQ(report.summary.dp_config_mismatches, 0u);
}

}  // namespace
}  // namespace chainckpt::scenario
