// Expected ScanStats of each DP, counted by walking the DP's scan loops
// one step at a time -- independent of the closed forms the solvers
// report, so a slip in either shows as a mismatch.
#pragma once

#include <cstddef>

#include "core/optimizer.hpp"

namespace chainckpt::core {

/// One streamed single-level row over right endpoints (d1, limit]: a step
/// per endpoint j, scanning v1 in [d1, j), or only v1 = d1 for AD.
inline void walk_row(std::size_t d1, std::size_t limit,
                     bool allow_extra_verifications, ScanStats& stats) {
  for (std::size_t j = d1 + 1; j <= limit; ++j) {
    ++stats.steps;
    stats.dense_cells += allow_extra_verifications ? j - d1 : 1;
  }
}

/// The counters `algorithm` must report for the solve that produced
/// `plan`.  The single-level DPs stream every row d1 < n once, then
/// re-stream one row per chosen disk segment to extract the plan.  The
/// level DPs run, per slab d1 and endpoint j, one v1 scan per m1 in
/// [d1, j) and one m1 scan over [d1, j).
inline ScanStats walked_scan_stats(Algorithm algorithm,
                                   const plan::ResiliencePlan& plan) {
  const std::size_t n = plan.size();
  ScanStats stats;
  if (algorithm == Algorithm::kAD || algorithm == Algorithm::kADVstar) {
    const bool extra = algorithm == Algorithm::kADVstar;
    for (std::size_t d1 = 0; d1 < n; ++d1) walk_row(d1, n, extra, stats);
    std::size_t d1 = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      if (plan.action(i) != plan::Action::kDiskCheckpoint) continue;
      walk_row(d1, i, extra, stats);
      d1 = i;
    }
  } else if (algorithm == Algorithm::kADMVstar ||
             algorithm == Algorithm::kADMV) {
    for (std::size_t d1 = 0; d1 < n; ++d1) {
      for (std::size_t j = d1 + 1; j <= n; ++j) {
        for (std::size_t m1 = d1; m1 < j; ++m1) {
          ++stats.steps;
          stats.dense_cells += j - m1;
        }
        ++stats.steps;
        stats.dense_cells += j - d1;
      }
    }
  }
  stats.cells_scanned = stats.dense_cells;
  return stats;
}

}  // namespace chainckpt::core
