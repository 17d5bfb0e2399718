// Single-level baselines.
//
// ADV* (paper Section IV): disk checkpoints only -- each still bundled with
// its memory checkpoint and guaranteed verification -- plus additional
// guaranteed verifications.  Obtained from the Section III-A dynamic
// program by pinning m1 = d1 (no interior memory checkpoints); silent
// errors roll back to the memory copy co-located with the last disk
// checkpoint.  O(n^3) time; the E_verif slabs are STREAMED, so peak DP
// memory is a block of O(n) rows plus the O(n) E_disk arrays rather than
// the dense (n+1)^2 value/argmin tables (see dp_single_level.cpp).
//
// AD (classical Toueg-Babaoglu-style baseline, extension): additionally
// forbids interior verifications, so silent errors are only caught by the
// guaranteed verification bundled with each checkpoint.  O(n^2) time,
// same streamed memory profile.
#pragma once

#include "core/dp_context.hpp"

namespace chainckpt::core {

struct SingleLevelOptions {
  /// When false, no verifications besides those bundled with checkpoints
  /// are placed (the AD baseline).
  bool allow_extra_verifications = true;
};

OptimizationResult optimize_single_level(const chain::TaskChain& chain,
                                         const platform::CostModel& costs,
                                         SingleLevelOptions options = {});

/// Same solver on a prebuilt context -- the shared-SegmentTables path used
/// by core::BatchSolver.
OptimizationResult optimize_single_level(const DpContext& ctx,
                                         SingleLevelOptions options = {});

}  // namespace chainckpt::core
