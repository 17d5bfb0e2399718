// Monotonicity-pruned argmin scans for the level DPs.
//
// Every inner loop of the three dynamic programs is the same shape: for a
// row identified by (d1, m1) and a right endpoint j that only grows, find
// the leftmost strict-less argmin of a candidate function over v1 in
// [m1, j).  Empirically (and provably for Knuth/Yao quadrangle-inequality
// cost functions) the argmin is non-decreasing in j, so the scan can start
// at the previous argmin instead of m1 -- on the paper's platforms this
// cuts the O(n^4)/O(n^6) v1/m1 scans to 25-45% of their dense cell count.
//
// Eq. (4)'s cost structure has no written QI proof (the E_verif * c cross
// term has indefinite sign), so the pruned mode is fenced by three runtime
// safeguards, each of which falls back to the dense scan when it fires:
//
//   1. QI gate (per row): analysis::SegmentTables::verify_quadrangle()
//      checks the quadrangle inequality on every coefficient stream the
//      Eq. (4) kernel reads; rows whose coefficient suffix violates it
//      are scanned densely from the start (ScanStats::gated_rows).  For
//      scans over derived values rather than those streams (ADMV*'s E_mem
//      m1 chain -- see detail::run_level_dp) the certificate is a
//      structural proxy and the remaining fences carry the weight.
//   2. Boundary guard (per step): the window starts one cell LEFT of the
//      previous argmin; if the leftmost argmin lands on that boundary
//      cell, it tied or beat everything to its right -- the argmin moved
//      left, and the step is rescanned densely, keeping the exact dense
//      result (ScanStats::guard_fallbacks).  The guard is adjacent-only
//      by design: a dip further left behind a barrier cell would escape
//      it, which is why the QI gate and the oracle/property batteries
//      exist.
//   3. Value-order check (per step): the row values E(m1, j) must be
//      non-decreasing in j (they are expected completion times); a
//      decrease voids the monotonicity rationale and the rest of the row
//      runs dense (ScanStats::order_fallback_rows).
//
// Under gate+guard the scanner reproduced the dense leftmost argmin
// bitwise on every oracle and property configuration (see
// tests/core/oracle_pruning_test.cpp and random_property_test.cpp); the
// guard machinery itself is unit-tested against fabricated non-monotone
// candidate matrices in tests/core/monotone_scanner_test.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace chainckpt::core {

/// How the level DPs run their inner argmin scans.  kDense is the
/// reference formulation; kMonotonePruned is bit-compatible on every
/// configuration covered by the QI gate + boundary guard (see above) and
/// is validated against kDense by the oracle and property suites.
enum class ScanMode { kDense, kMonotonePruned };

/// Counters describing one solve's scan behaviour.  All counts are in
/// candidate evaluations ("cells") or rows/steps of the inner DP; a dense
/// solve reports zeros.  Aggregated across solves by
/// core::BatchSolver::stats_snapshot().
struct ScanStats {
  /// Candidate evaluations the dense formulation would have performed.
  std::uint64_t dense_cells = 0;
  /// Candidate evaluations actually performed (window + guards + rescans).
  std::uint64_t cells_scanned = 0;
  /// Scan steps driven through the scanner.
  std::uint64_t steps = 0;
  /// Steps whose window was extended one cell left of the previous
  /// argmin to watch the boundary.
  std::uint64_t guard_checks = 0;
  /// Steps the boundary guard rescanned densely.
  std::uint64_t guard_fallbacks = 0;
  /// Rows the QI gate forced dense from the start.
  std::uint64_t gated_rows = 0;
  /// Rows that switched to dense mid-way on a value-order violation.
  std::uint64_t order_fallback_rows = 0;
  /// Rows that ran (at least partially) windowed.
  std::uint64_t windowed_rows = 0;

  ScanStats& operator+=(const ScanStats& other) noexcept {
    dense_cells += other.dense_cells;
    cells_scanned += other.cells_scanned;
    steps += other.steps;
    guard_checks += other.guard_checks;
    guard_fallbacks += other.guard_fallbacks;
    gated_rows += other.gated_rows;
    order_fallback_rows += other.order_fallback_rows;
    windowed_rows += other.windowed_rows;
    return *this;
  }

  /// Fraction of dense candidate evaluations avoided, in [0, 1].
  double prune_fraction() const noexcept {
    if (dense_cells == 0 || cells_scanned >= dense_cells) return 0.0;
    return 1.0 - static_cast<double>(cells_scanned) /
                     static_cast<double>(dense_cells);
  }
};

/// Drives the windowed scans of one slab (a set of rows m1 in [d1, n]
/// sharing a d1) or one streamed single-level row.  Not thread-safe; each
/// worker owns its scanner and merges stats() out at slab end.
///
/// The scan kernel is injected per step as a callable
///   scan(lo, hi, best, best_arg)
/// that folds the candidates for v1 in [lo, hi) into (best, best_arg)
/// with the strict-less leftmost-argmin rule, exactly like the dense
/// ColumnScanner contract (see core/level_dp.hpp).
class MonotoneScanner {
 public:
  explicit MonotoneScanner(std::size_t n) : rows_(n + 1) {}

  /// Starts row m1.  `qi_ok` is the per-row verdict of the QI gate
  /// (analysis::QiCertificate::row_ok(m1)); a false verdict pins the row
  /// to the dense scan.
  void begin_row(std::size_t m1, bool qi_ok) {
    RowState& row = rows_[m1];
    row.windowed = qi_ok;
    row.last_arg = -1;
    row.last_value = -std::numeric_limits<double>::infinity();
    if (qi_ok) {
      ++stats_.windowed_rows;
    } else {
      ++stats_.gated_rows;
    }
  }

  /// One scan step: leftmost strict-less argmin over v1 in [m1, j) for
  /// the current right endpoint j, bit-identical to the dense scan under
  /// the safeguards documented above.  begin_row(m1, ...) must have run,
  /// and steps of a row must arrive with strictly increasing j.
  ///
  /// The boundary guard is folded into the window: the scan starts one
  /// cell LEFT of the previous argmin, and because the kernel applies the
  /// leftmost strict-less rule, the argmin landing on that boundary cell
  /// is exactly the "ties or beats everything to its right" condition --
  /// the signal that the argmin moved left and the step must rescan
  /// densely.  Folding matters for performance, not just elegance: the
  /// kernel is invoked from a single call site, so the heavy fused DP
  /// loops are inlined once per instantiation (three call sites
  /// measurably deoptimized the ADMV inner solver).
  template <typename ScanFn>
  void step(std::size_t m1, std::size_t j, ScanFn&& scan, double& best,
            std::int32_t& best_arg) {
    RowState& row = rows_[m1];
    ++stats_.steps;
    stats_.dense_cells += j - m1;
    std::size_t start = m1;
    if (row.windowed && row.last_arg >= 0 &&
        static_cast<std::size_t>(row.last_arg) > m1) {
      start = static_cast<std::size_t>(row.last_arg) - 1;
      ++stats_.guard_checks;
    }
    for (;;) {
      best = std::numeric_limits<double>::infinity();
      best_arg = -1;
      scan(start, j, best, best_arg);
      stats_.cells_scanned += j - start;
      if (start == m1 || static_cast<std::size_t>(best_arg) != start) break;
      // The boundary cell won (or tied leftmost): monotonicity violated
      // for this step; redo it densely and keep the exact dense result.
      ++stats_.guard_fallbacks;
      start = m1;
    }
    if (row.windowed && best < row.last_value) {
      // Row values stopped being non-decreasing: void the monotonicity
      // rationale and finish the row densely.
      row.windowed = false;
      ++stats_.order_fallback_rows;
    }
    row.last_value = best;
    row.last_arg = best_arg;
  }

  const ScanStats& stats() const noexcept { return stats_; }

 private:
  struct RowState {
    bool windowed = false;
    std::int32_t last_arg = -1;
    double last_value = 0.0;
  };
  std::vector<RowState> rows_;
  ScanStats stats_;
};

}  // namespace chainckpt::core
