// Unified entry point over the paper's algorithms and the baselines.
#pragma once

#include <string>
#include <vector>

#include "core/dp_context.hpp"

namespace chainckpt::core {

enum class Algorithm {
  kAD,        ///< disk checkpoints only, no extra verifications (baseline)
  kADVstar,   ///< single-level + guaranteed verifications (paper "ADV*")
  kADMVstar,  ///< two-level + guaranteed verifications (paper "ADMV*")
  kADMV,      ///< two-level + partial verifications (paper "ADMV")
  kPeriodic,  ///< best periodic plan (heuristic baseline)
  kDaly,      ///< Young/Daly-style first-order plan (heuristic baseline)
};

/// Paper display names: "AD", "ADV*", "ADMV*", "ADMV", "Periodic", "Daly".
std::string to_string(Algorithm algorithm);
/// Accepts the display names (case-insensitive, '*' optional for the
/// starred algorithms is NOT accepted -- "ADV*" and "ADV" are different
/// only in the paper's naming; we require the exact starred spelling or
/// the lowercase aliases "ad", "adv", "admv_star", "admv", "periodic",
/// "daly").
Algorithm algorithm_from_string(const std::string& name);

/// Runs the requested optimizer.
OptimizationResult optimize(Algorithm algorithm,
                            const chain::TaskChain& chain,
                            const platform::CostModel& costs);

/// Runs the requested optimizer on a prebuilt context -- the
/// shared-SegmentTables path used by core::BatchSolver.  Results are
/// identical to the (chain, costs) overload.  Every DP accepts any
/// context (kADMV builds its row streams per solve); the heuristic
/// baselines ignore the context's tables and read only its chain and
/// cost model.
OptimizationResult optimize(Algorithm algorithm, const DpContext& ctx);

/// The three algorithms compared in the paper's evaluation, in paper
/// order: { kADVstar, kADMVstar, kADMV }.
std::vector<Algorithm> paper_algorithms();

}  // namespace chainckpt::core
