// ScenarioRunner: drives one cell (or the whole matrix) through the three
// lanes the battery checks:
//
//   DP lane       -- every algorithm in the spec solved under three
//                    SIMD-tier configurations (scalar, AVX2, AVX-512,
//                    each clamped to what the host supports); all must
//                    be bit-identical (plan bytes + objective bits),
//                    pinning the determinism contract per cell.
//   Sim lane      -- Monte-Carlo replicas of the reference plan under the
//                    cell's ACTUAL failure regime (law + recall), with the
//                    mean makespan compared against the DP prediction.
//                    In-model cells must agree within the flagging
//                    interval; assumption-breaking cells record the gap
//                    and are FLAGGED, never silently averaged.
//   Service lane  -- cells with traffic replay their seeded arrival trace
//                    through a live service::SolverService: results must
//                    be bitwise equal to synchronous reference solves,
//                    every job must succeed, and no priority inversions
//                    may occur (unlimited admission budget, generous
//                    deadlines -- the stress battery tightens both).
//
// run_matrix() parallelizes ACROSS cells (util::parallel_for); each
// cell's own loops are nested and draw on idle threads only.  Every loop
// derives its results from iteration indices, so per-cell results are
// independent of the schedule and the report keeps its byte-determinism
// contract (scenario/report.hpp).  For a serial run, call
// util::set_parallelism(1) first.
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/report.hpp"
#include "scenario/spec.hpp"

namespace chainckpt::scenario {

struct RunnerOptions {
  /// Record wall-clock latency metrics in the service lane.  Opts the
  /// report OUT of byte determinism -- leave false for golden/CI runs.
  bool include_timing = false;
  /// Service-lane worker-pool width.
  std::size_t service_workers = 4;
  /// Stamped into ScenarioReport::master_seed (provenance only).
  std::uint64_t master_seed = 0;
};

/// Runs one cell through all applicable lanes.
CellReport run_cell(const ScenarioSpec& spec, const RunnerOptions& options = {});

/// Runs every cell and finalizes the summary.  Cell order in the report
/// matches the spec order regardless of scheduling.
ScenarioReport run_matrix(const std::vector<ScenarioSpec>& specs,
                          const RunnerOptions& options = {});

}  // namespace chainckpt::scenario
