// ADMV: the full dynamic program of paper Section III-B.
//
// Extends ADMV* with partial verifications (cost V << V*, recall r < 1).
// The outer three levels (disk / memory / guaranteed verification) are the
// same as Section III-A; each verified segment (v1, v2] is scored by an
// inner dynamic program that walks partial-verification positions from
// right to left:
//
//   E_partial(d1,m1,v1,p1,v2) = min over p2 in (p1, v2] of
//     p2 < v2 : E^-(d1,m1,v1,p1,p2,v2) * e^{(lf+ls) W_{p2,v2}}
//               + E_partial(d1,m1,v1,p2,v2)
//     p2 = v2 : E^-(d1,m1,v1,p1,v2,v2)
//               + e^{(lf+ls) W_{p1,v2}} (V* - V)
//
// where E^- is the inter-partial-verification segment cost with the
// E_left re-execution term removed (re-injected through the proven
// e^{(lf+ls) W_{p2,v2}} multiplier), and E_right -- the expected loss
// while an undetected silent error propagates -- is evaluated along the
// *optimal* next-verification chain, which is exactly why the inner DP
// must run right to left.  O(n^6) time, O(n^2) memory (neither the
// O(n^3) E_verif table nor the O(n^5) E_partial table is materialized:
// the winning rows and segments are re-derived during plan extraction).
#pragma once

#include "core/dp_context.hpp"

namespace chainckpt::core {

/// Returns the optimal ADMV plan and its expected makespan.  Its scan
/// counters are those of the level-DP engine's v1 and m1 scans; the
/// inner partial-verification DP is not counted.
OptimizationResult optimize_with_partial(const chain::TaskChain& chain,
                                         const platform::CostModel& costs);

/// Same solver on a prebuilt context -- the shared-SegmentTables path used
/// by core::BatchSolver.  The inner DP's row-oriented streams
/// (analysis::SegmentRows) are built per solve from the context's chain
/// and cost model.
OptimizationResult optimize_with_partial(const DpContext& ctx);

}  // namespace chainckpt::core
