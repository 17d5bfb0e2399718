// Deep matrix sweep (ctest label: slow; gate CHAINCKPT_SLOW_TESTS=1).
//
// Runs the full >= 200-cell cross-product twice -- parallel and serial,
// plus a narrowed thread count -- and asserts the report's
// byte-determinism contract, bit-identical DP configurations in every
// cell, agreement in every in-model cell, and a measured+flagged gap in
// the heavy-tailed regimes.
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "scenario/matrix.hpp"
#include "util/parallel.hpp"

namespace chainckpt::scenario {
namespace {

#define CHAINCKPT_REQUIRE_SLOW()                                         \
  if (std::getenv("CHAINCKPT_SLOW_TESTS") == nullptr) {                  \
    GTEST_SKIP() << "deep matrix sweep; set CHAINCKPT_SLOW_TESTS=1 "     \
                    "(ctest label: slow)";                               \
  }

TEST(MatrixSlow, FullSweepIsByteDeterministicAndInModelCellsAgree) {
  CHAINCKPT_REQUIRE_SLOW();
  const MatrixOptions mopts;
  const std::vector<ScenarioSpec> specs = build_matrix(mopts);
  ASSERT_GE(specs.size(), 200u);

  RunnerOptions ropts;
  ropts.master_seed = mopts.master_seed;
  const ScenarioReport parallel_report = run_matrix(specs, ropts);
  const std::string parallel_json = report_to_json(parallel_report);

  // Byte-identical under a serial schedule...
  util::set_parallelism(1);
  const std::string serial_json = report_to_json(run_matrix(specs, ropts));
  util::set_parallelism(0);
  EXPECT_EQ(serial_json, parallel_json);

  // ...and under a different thread count.
  util::set_parallelism(3);
  const std::string narrowed_json = report_to_json(run_matrix(specs, ropts));
  util::set_parallelism(0);
  EXPECT_EQ(narrowed_json, parallel_json);

  // The matrix invariants, cell by cell.
  const MatrixSummary& s = parallel_report.summary;
  EXPECT_EQ(s.cells, specs.size());
  EXPECT_EQ(s.ok_cells, s.cells);
  EXPECT_EQ(s.dp_config_mismatches, 0u);
  EXPECT_EQ(s.diverged_in_model, 0u);
  EXPECT_GT(s.flagged_cells, 0u);
  EXPECT_GT(s.diverged_flagged, 0u);
  EXPECT_GT(s.service_cells, 0u);
  for (const CellReport& cell : parallel_report.cells) {
    EXPECT_TRUE(cell.ok) << cell.name;
    if (cell.assumptions_hold) {
      EXPECT_FALSE(cell.diverged) << cell.name;
      for (const SimLaneResult& lane : cell.sim) {
        EXPECT_TRUE(lane.within_ci) << cell.name << " " << lane.algorithm
                                    << " gap " << lane.gap_sigmas << " sigmas";
      }
    }
    // Weibull cells planned under the exponential law must measurably
    // diverge -- the heavy-tail break is large by construction at the
    // matrix's amplified rates.  Weibull cells planned under their own
    // law (the bare weib0.7/weib0.5 regimes) are in-model and covered
    // by the agreement branch above.
    const bool weibull = cell.name.find("weib") != std::string::npos;
    const bool exp_planned = cell.name.find("expplan") != std::string::npos ||
                             cell.name.find("-mis") != std::string::npos;
    if (weibull && exp_planned) {
      EXPECT_TRUE(cell.flagged) << cell.name;
      EXPECT_TRUE(cell.diverged) << cell.name;
    } else if (weibull) {
      EXPECT_TRUE(cell.assumptions_hold) << cell.name;
      EXPECT_EQ(cell.planning_law.rfind("weibull", 0), 0u) << cell.name;
      EXPECT_FALSE(cell.flagged) << cell.name;
    }
  }
}

TEST(MatrixSlow, ReportIsInvariantToTheRunnersServiceWorkerCount) {
  CHAINCKPT_REQUIRE_SLOW();
  // The service lane runs live threads; its deterministic fields must
  // not depend on the pool width.
  MatrixOptions mopts;
  mopts.smoke = true;
  const std::vector<ScenarioSpec> specs = build_matrix(mopts);
  RunnerOptions a;
  a.master_seed = mopts.master_seed;
  a.service_workers = 1;
  RunnerOptions b = a;
  b.service_workers = 8;
  EXPECT_EQ(report_to_json(run_matrix(specs, a)),
            report_to_json(run_matrix(specs, b)));
}

}  // namespace
}  // namespace chainckpt::scenario
