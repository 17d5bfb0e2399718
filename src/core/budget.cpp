#include "core/budget.hpp"

#include <vector>

#include "analysis/evaluator.hpp"
#include "util/assert.hpp"

namespace chainckpt::core {

namespace {

/// Cost model equal to `base` with `disk_penalty`/`memory_penalty` added
/// to the *interior* checkpoint placement prices.  Recovery costs and the
/// final position's prices are unchanged, so the penalty only steers
/// placement decisions.
platform::CostModel penalize(const platform::CostModel& base, std::size_t n,
                             double disk_penalty, double memory_penalty) {
  std::vector<double> c_disk(n), c_mem(n), v_g(n), v_p(n), r_d(n), r_m(n);
  for (std::size_t i = 1; i <= n; ++i) {
    const bool interior = i < n;
    c_disk[i - 1] = base.c_disk_after(i) + (interior ? disk_penalty : 0.0);
    c_mem[i - 1] = base.c_mem_after(i) + (interior ? memory_penalty : 0.0);
    v_g[i - 1] = base.v_guaranteed_after(i);
    v_p[i - 1] = base.v_partial_after(i);
    r_d[i - 1] = base.r_disk_after(i);
    r_m[i - 1] = base.r_mem_after(i);
  }
  return platform::CostModel(base.platform(), std::move(c_disk),
                             std::move(c_mem), std::move(v_g),
                             std::move(v_p), std::move(r_d), std::move(r_m));
}

struct Counts {
  std::size_t disk = 0;
  std::size_t memory = 0;
};

Counts interior_counts(const plan::ResiliencePlan& plan) {
  const auto c = plan.interior_counts();
  return Counts{c.disk, c.memory};
}

bool within(const Counts& counts, const BudgetConstraint& budget) {
  if (budget.max_interior_disk && counts.disk > *budget.max_interior_disk)
    return false;
  if (budget.max_interior_memory &&
      counts.memory > *budget.max_interior_memory)
    return false;
  return true;
}

}  // namespace

BudgetResult optimize_with_budget(Algorithm algorithm,
                                  const chain::TaskChain& chain,
                                  const platform::CostModel& costs,
                                  const BudgetConstraint& budget) {
  CHAINCKPT_REQUIRE(algorithm == Algorithm::kADVstar ||
                        algorithm == Algorithm::kADMVstar ||
                        algorithm == Algorithm::kADMV ||
                        algorithm == Algorithm::kAD,
                    "budgeted optimization requires a DP algorithm");
  const std::size_t n = chain.size();
  const analysis::PlanEvaluator evaluator(chain, costs);

  auto solve = [&](double disk_penalty, double memory_penalty) {
    const auto penalized = penalize(costs, n, disk_penalty, memory_penalty);
    return optimize(algorithm, chain, penalized).plan;
  };

  double disk_penalty = 0.0;
  double memory_penalty = 0.0;
  plan::ResiliencePlan best = solve(0.0, 0.0);
  if (!within(interior_counts(best), budget)) {
    // A penalty of the whole error-free makespan suppresses any placement
    // (an interior checkpoint can never save more than the full chain).
    const double penalty_cap = 4.0 * chain.total_weight();

    // Coordinate-wise bisection, a few alternating rounds to absorb the
    // (mild) coupling between the two budgets.
    for (int round = 0; round < 3; ++round) {
      if (budget.max_interior_disk) {
        double lo = 0.0, hi = penalty_cap;
        for (int it = 0; it < 48; ++it) {
          const double mid = 0.5 * (lo + hi);
          const auto plan = solve(mid, memory_penalty);
          if (interior_counts(plan).disk > *budget.max_interior_disk) {
            lo = mid;
          } else {
            hi = mid;
            best = plan;
          }
        }
        disk_penalty = hi;
      }
      if (budget.max_interior_memory) {
        double lo = 0.0, hi = penalty_cap;
        for (int it = 0; it < 48; ++it) {
          const double mid = 0.5 * (lo + hi);
          const auto plan = solve(disk_penalty, mid);
          if (interior_counts(plan).memory > *budget.max_interior_memory) {
            lo = mid;
          } else {
            hi = mid;
            best = plan;
          }
        }
        memory_penalty = hi;
      }
      const auto plan = solve(disk_penalty, memory_penalty);
      if (within(interior_counts(plan), budget)) best = plan;
      if (within(interior_counts(best), budget) &&
          (!budget.max_interior_disk || disk_penalty == 0.0 ||
           !budget.max_interior_memory || memory_penalty == 0.0 ||
           round > 0)) {
        break;
      }
    }
  }

  CHAINCKPT_ASSERT(within(interior_counts(best), budget),
                   "Lagrangian bisection failed to reach the budget");
  BudgetResult out;
  out.plan = best;
  out.expected_makespan = evaluator.expected_makespan(best);
  out.disk_penalty = disk_penalty;
  out.memory_penalty = memory_penalty;
  return out;
}

}  // namespace chainckpt::core
