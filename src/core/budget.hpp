// Budget-constrained optimization (extension beyond the paper).
//
// Real deployments often cap the number of checkpoints: burst-buffer
// space bounds the in-memory copies, PFS quotas and I/O contention bound
// the disk ones.  This module solves
//
//     minimize   E[makespan]
//     subject to #interior disk checkpoints   <= K_D
//                #interior memory checkpoints <= K_M
//
// by Lagrangian relaxation: a per-placement penalty is added to the
// (per-position) checkpoint costs -- recovery costs are left untouched --
// and bisected until the unconstrained optimizer respects the budget.
// The returned plan is re-scored under the TRUE cost model, so the
// reported expected makespan is honest.
//
// Guarantees: the returned plan is feasible (penalties can always push
// counts to zero), and by standard Lagrangian duality it is *optimal
// among plans with its own checkpoint counts*.  When no plan with
// exactly K checkpoints is on the lower convex envelope of the
// count-vs-cost tradeoff, the method may return a plan using fewer
// checkpoints than allowed; the gap to the true constrained optimum is
// then bounded by the envelope's local curvature (documented
// approximation).
#pragma once

#include <cstddef>
#include <optional>

#include "core/optimizer.hpp"

namespace chainckpt::core {

struct BudgetConstraint {
  /// Maximum number of interior disk checkpoints (positions 1..n-1); the
  /// mandatory final bundle is never counted.  nullopt = unconstrained.
  std::optional<std::size_t> max_interior_disk;
  /// Maximum number of interior memory checkpoints (including those
  /// bundled under interior disk checkpoints).
  std::optional<std::size_t> max_interior_memory;
};

struct BudgetResult {
  plan::ResiliencePlan plan;
  /// Expected makespan under the true (unpenalized) cost model.
  double expected_makespan = 0.0;
  /// Final Lagrange multipliers (seconds per placement).
  double disk_penalty = 0.0;
  double memory_penalty = 0.0;
};

/// Runs `algorithm` under the budget.  Throws std::invalid_argument for
/// the brute-force-only algorithms (use the DP ones).
BudgetResult optimize_with_budget(Algorithm algorithm,
                                  const chain::TaskChain& chain,
                                  const platform::CostModel& costs,
                                  const BudgetConstraint& budget);

}  // namespace chainckpt::core
