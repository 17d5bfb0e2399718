// ADMV*: the two-level dynamic program of paper Section III-A.
//
// Places disk checkpoints, additional memory checkpoints, and guaranteed
// verifications to minimize the expected makespan of a linear task chain
// under fail-stop + silent errors.  O(n^4) time, O(n^2) memory.
#pragma once

#include "core/dp_context.hpp"

namespace chainckpt::core {

/// Returns the optimal ADMV* plan and its expected makespan.
OptimizationResult optimize_two_level(const chain::TaskChain& chain,
                                      const platform::CostModel& costs);

/// Same solver on a prebuilt context -- the shared-SegmentTables path used
/// by core::BatchSolver.
OptimizationResult optimize_two_level(const DpContext& ctx);

}  // namespace chainckpt::core
