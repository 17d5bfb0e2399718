// Validity certificates for cached plans (core::PlanCache): how far a
// cost model may drift from the one a plan was optimized under before the
// cache must re-solve, and how good a re-scored plan must be to serve.
//
// A certificate answers two different questions about serving a cached
// plan under a drifted cost model, with two very different strengths:
//
//  1. "Is the cached plan worth re-scoring at all?"  -- the ADVISORY
//     screen.  Per parameter group it stores a drift radius derived from
//     analysis::stability_radius (Young/Daly period scaling applied to
//     the plan's own mechanism counts and the first-order predicted
//     counts, whichever is denser).  Drift beyond a radius means the
//     optimal plan has likely changed shape; the cache re-solves
//     immediately instead of wasting an evaluator pass.  The radii are
//     heuristic and carry NO optimality claim -- a drift inside every
//     radius may still change the optimal plan (the adversarial case in
//     tests/core/plan_cache_test.cpp constructs exactly that).
//
//  2. "If re-scored, how good must the score be?"  -- the SOUND bound.
//     The expected makespan E(P, theta) of any fixed plan is affine in
//     a cost basis with non-negative coefficients and a constant term
//     >= total chain weight, and is monotone non-decreasing in
//     lambda_f, lambda_s and the miss probability g.  The basis depends
//     on the pricing framework: (C_D, C_M, R_D, R_M, V*) for Eq. (4)
//     entries (V is never read), and (C_D, C_M, R_D, R_M, V, V* - V)
//     for Section III-B entries -- V* and V individually carry mixed
//     signs there (the (V* - V) nuance terms subtract V), but the
//     transformed pair is non-negative again whenever V* >= V.  Hence,
//     when no rate decreased and the law is unchanged,
//
//         E*(theta_req) >= gamma * E*(theta_base),
//         gamma = min(1, min over basis entries of req/base),
//
//     and unconditionally E*(theta_req) >= total chain weight (every
//     task executes at least once).  check_certificate returns the max
//     of the applicable bounds in `lower_bound`; the cache serves an
//     epsilon-hit only when the evaluator's re-score of the cached plan
//     is <= (1 + epsilon) * lower_bound, which implies true relative
//     error <= epsilon against the unknown optimum.
//
// See docs/CACHING.md for the full contract.
#pragma once

#include <cstddef>

#include "plan/plan.hpp"
#include "platform/cost_model.hpp"
#include "platform/platform.hpp"

namespace chainckpt::core {

struct ValidityCertificate {
  /// Advisory radii (relative drift) per parameter group.
  double radius_lambda_f = 0.5;
  double radius_lambda_s = 0.5;
  /// Checkpoint/recovery costs (C_D, C_M, R_D, R_M).
  double radius_cost = 0.5;
  /// Verification costs (V*, V).
  double radius_verif = 0.5;
  /// Miss probability g = 1 - recall.
  double radius_miss = 0.5;
  /// E*(theta_base): the optimized objective the plan was cached with.
  double base_objective = 0.0;
  /// Sum of chain weights -- the unconditional lower bound on any E*.
  double total_weight = 0.0;
  /// True when the entry was priced under the Section III-B partial
  /// framework (the kADMV engine -- even for partial-free optima).  That
  /// objective carries (V* - V) nuance terms, i.e. a NEGATIVE coefficient
  /// on the partial-verification cost, so the gamma scaling must fold the
  /// transformed basis (C_D, C_M, R_D, R_M, V, V* - V) -- in which every
  /// coefficient is non-negative again -- instead of (.., V*, V).
  bool partial_framework = false;
};

enum class DriftOutcome {
  /// Every compared parameter is bitwise-identical.  (PlanCache normally
  /// catches this earlier via key equality on the algorithm's read set.)
  kExactMatch,
  /// Drift present but inside every advisory radius: worth re-scoring
  /// against `lower_bound` for an epsilon-hit.
  kWithinRadius,
  /// Some group drifted beyond its radius (or the planning-law family
  /// changed): re-solve, do not re-score.
  kBeyondRadius,
};

struct DriftCheck {
  DriftOutcome outcome = DriftOutcome::kBeyondRadius;
  /// Largest relative drift observed across all parameter groups.
  double max_drift = 0.0;
  /// Sound lower bound on E*(theta_req) -- see the block comment.  At
  /// least `total_weight` always; tightened to gamma * base_objective
  /// when no rate decreased and the law is bitwise-unchanged.
  double lower_bound = 0.0;
  /// True when the gamma-scaled bound applied (not just the weight floor).
  bool scaled_bound = false;
};

/// Builds the certificate for a freshly optimized plan.  `total_weight`
/// is the chain's weight sum; `base_objective` the optimized makespan.
ValidityCertificate make_validity_certificate(const plan::ResiliencePlan& plan,
                                              const platform::Platform& platform,
                                              double base_objective,
                                              double total_weight);

/// Evaluates parameter drift from `base` to `request` against the
/// certificate.  `n` is the chain length (positions 1..n are compared;
/// uniform models are compared at one position).  Both models must
/// describe the same chain -- the caller (PlanCache) guarantees this by
/// keying on the weight vector.
DriftCheck check_certificate(const ValidityCertificate& cert,
                             const platform::CostModel& base,
                             const platform::CostModel& request,
                             std::size_t n);

}  // namespace chainckpt::core
