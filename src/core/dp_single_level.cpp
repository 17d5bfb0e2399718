#include "core/dp_single_level.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/segment_math.hpp"
#include "core/cancellation.hpp"
#include "core/simd/argmin_kernels.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace chainckpt::core {

namespace {

// Streaming formulation.  The m1 = d1 restriction makes every E_verif slab
// one row: E_verif(d1, ·) depends only on itself, never on E_disk, and
// E_disk(d2) = min_{d1 < d2} E_disk(d1) + E_verif(d1, d2) + C_M + C_D
// consumes each row exactly once.  So instead of materializing the dense
// (n+1)^2 value + argmin tables, the solver streams rows in blocks:
//
//   1. compute a block of E_verif rows in parallel, in groups of
//      simd::kGroupRows consecutive d1 that step the right endpoint j
//      together: each column j's coefficients are then read once per
//      group instead of once per row, and the rows' own prefixes keep
//      every candidate and argmin exactly the one-row scan's;
//   2. fold the block into the running E_disk minima in ascending d1
//      order, finalizing E_disk(d1) right before row d1 contributes --
//      every contribution from d1' < d1 has landed by then, whether d1'
//      sits in an earlier block or earlier in this one.
//
// Peak DP memory drops from O(n^2) to block x O(n) rows plus the O(n)
// E_disk arrays (the O(n^2) SegmentTables coefficient columns are shared
// context, not per-solve state).  The fold applies candidates in the same
// ascending-d1 order with the same strict-less argmin as the dense scan,
// and each row is produced by the identical fused Eq. (4) kernel, so
// objectives AND plans are bitwise identical to the dense formulation.
//
// Plan extraction re-derives the v1 argmin chain by re-streaming the one
// row per chosen disk segment (O((d2-d1)^2) work, O(n) scratch); the
// chosen segments partition [0, n], so reconstruction costs at most one
// extra row pass over the chain.

constexpr std::size_t kGroupRows = simd::kGroupRows;

/// Rows per streamed block: two whole row groups per worker, at most 256
/// rows.  The block size only shapes the schedule -- the fold consumes
/// rows in ascending d1 order regardless -- so results are identical for
/// any value.
std::size_t stream_block_rows(std::size_t n) {
  static_assert(256 % (2 * kGroupRows) == 0, "the cap holds whole groups");
  const auto workers =
      static_cast<std::size_t>(std::max(1, util::hardware_parallelism()));
  return std::min({n, 2 * kGroupRows * workers, std::size_t{256}});
}

/// Streams the E_verif(d1, ·) row of the m1 = d1 DP into row[d1..limit]:
/// E_verif(d1, d1) = 0 and, for j > d1, the Eq. (4) scan over v1 fused on
/// the hoisted SoA columns (see analysis::SegmentTables) -- E_mem(d1, d1)
/// is 0 and R_M is the memory copy bundled with the disk checkpoint at d1.
/// When `args` is non-null the v1 argmins are recorded for plan
/// extraction.  Bitwise the recurrence the dense tables used to hold.
/// The SIMD kernel facade K is a compile-time parameter so the scalar
/// instantiation keeps the original branch-free loop body (see
/// run_level_dp for the rationale).
template <typename K>
void stream_everif_row(const DpContext& ctx, std::size_t d1,
                       std::size_t limit, bool allow_extra_verifications,
                       double* row, std::int32_t* args) {
  const auto& cm = ctx.costs();
  const auto& seg = ctx.seg_tables();
  row[d1] = 0.0;
  const double k1 = cm.r_disk_after(d1) + 0.0;  // left e_mem is 0 here
  const double k2 = cm.r_mem_after(d1);
  // AD restricts the segment to start at d1 (no interior verifs).
  for (std::size_t j = d1 + 1; j <= limit; ++j) {
    double best = std::numeric_limits<double>::infinity();
    std::int32_t best_arg = -1;
    K::affine(row, seg.exvg_col(j), seg.b_col(j), seg.c_col(j),
              seg.d_col(j), k1, k2, d1,
              allow_extra_verifications ? j : d1 + 1, best, best_arg);
    row[j] = best;
    if (args != nullptr) args[j] = best_arg;
  }
}

/// Streams the kGroupRows rows d1 = g0 ... g0 + kGroupRows - 1 of the
/// ADV* DP into rows[(d1 - g0) * stride + ...], up to j = n: the same
/// values as stream_everif_row on each row, computed a column at a time.
/// At each j, row d1 scans v1 in [d1, j): its own prefix [d1, shared)
/// through the scalar kernel, then the range [shared, j) that every row
/// of the group scans, through one K::affine_rows call that reads column
/// j once.  Prefix first and strict-less, so each row's candidates and
/// leftmost argmin are the one-row scan's.
template <typename K>
void stream_everif_group(const DpContext& ctx, std::size_t g0,
                         double* rows, std::size_t stride) {
  const auto& cm = ctx.costs();
  const auto& seg = ctx.seg_tables();
  const std::size_t n = ctx.n();
  const CancelToken* cancel = ctx.cancel_token();
  const std::size_t shared = g0 + kGroupRows - 1;
  double k1[kGroupRows];
  double k2[kGroupRows];
  for (std::size_t r = 0; r < kGroupRows; ++r) {
    rows[r * stride + g0 + r] = 0.0;
    k1[r] = cm.r_disk_after(g0 + r) + 0.0;  // left e_mem is 0 here
    k2[r] = cm.r_mem_after(g0 + r);
  }
  for (std::size_t j = g0 + 1; j <= n; ++j) {
    // Cancellation checkpoint: per group step, outside the kernel.
    poll_cancellation(cancel);
    const double* exvg = seg.exvg_col(j);
    const double* b = seg.b_col(j);
    const double* c = seg.c_col(j);
    const double* d = seg.d_col(j);
    double best[kGroupRows];
    std::int32_t best_arg[kGroupRows];
    for (std::size_t r = 0; r < kGroupRows; ++r) {
      best[r] = std::numeric_limits<double>::infinity();
      best_arg[r] = -1;
      simd::ScalarKernels::affine(rows + r * stride, exvg, b, c, d, k1[r],
                                  k2[r], g0 + r, std::min(j, shared),
                                  best[r], best_arg[r]);
    }
    if (j > shared) {
      K::affine_rows(rows, stride, exvg, b, c, d, k1, k2, shared, j, best,
                     best_arg);
    }
    // Rows d1 >= j have no endpoint j yet (row g0 + r starts at its 0).
    for (std::size_t r = 0; r < kGroupRows && g0 + r < j; ++r) {
      rows[r * stride + j] = best[r];
    }
  }
}

/// Scan counters of streaming rows over `len` right endpoints: one step
/// per endpoint j, scanning j - d1 cells (one cell for AD).  A closed
/// form, so the totals do not depend on the block schedule.
ScanStats row_scan_stats(std::uint64_t len, bool allow_extra_verifications) {
  ScanStats stats;
  stats.steps = len;
  stats.dense_cells = allow_extra_verifications ? len * (len + 1) / 2 : len;
  stats.cells_scanned = stats.dense_cells;
  return stats;
}

/// The solve body, instantiated per SIMD kernel tier K (dispatch happens
/// once in optimize_single_level; K = ScalarKernels is the historic
/// code path, the vector tiers are bitwise identical by contract).
template <typename K>
OptimizationResult optimize_single_level_impl(const DpContext& ctx,
                                              SingleLevelOptions options) {
  const std::size_t n = ctx.n();
  const auto& cm = ctx.costs();
  const CancelToken* cancel = ctx.cancel_token();
  const std::size_t stride = n + 1;
  const std::size_t block = stream_block_rows(n);
  const bool extra = options.allow_extra_verifications;
  // The solve's scratch: the row block plus the O(n) disk-level arrays.
  std::vector<double> row_block(block * stride);
  std::vector<double> run_best(stride,
                               std::numeric_limits<double>::infinity());
  std::vector<double> edisk(stride);  // E_disk(0) = 0
  std::vector<std::int32_t> best_d1(stride, -1);
  std::vector<std::int32_t> row_args(stride);
  double* rows = row_block.data();

  for (std::size_t b0 = 0; b0 < n; b0 += block) {
    const std::size_t b1 = std::min(n, b0 + block);
    // Whole row groups first, then the rows left over at the chain's end
    // one at a time.  AD scans one cell per step, so it has no column to
    // share and streams every row alone.
    const std::size_t groups = extra ? (b1 - b0) / kGroupRows : 0;
    const std::size_t grouped = groups * kGroupRows;
    util::parallel_for(0, groups + (b1 - b0 - grouped), [&](std::size_t t) {
      if (t < groups) {
        stream_everif_group<K>(ctx, b0 + t * kGroupRows,
                               rows + t * kGroupRows * stride, stride);
        return;
      }
      const std::size_t d1 = b0 + grouped + (t - groups);
      // Cancellation checkpoint: per streamed row (a row is O(n) scan
      // steps), keeping the fused Eq. (4) kernel itself untouched.
      poll_cancellation(cancel);
      stream_everif_row<K>(ctx, d1, n, extra, rows + (d1 - b0) * stride,
                           nullptr);
    });
    // Fold the block into the running E_disk minima.  E_disk(d1) excludes
    // the segment value but pays the memory + disk checkpoint pair at d1
    // (ADV* bundles them), mirroring the dense pass term for term.
    for (std::size_t d1 = b0; d1 < b1; ++d1) {
      if (d1 > 0) {
        CHAINCKPT_ASSERT(best_d1[d1] >= 0, "broken E_disk argmin");
        edisk[d1] = run_best[d1] + cm.c_mem_after(d1) + cm.c_disk_after(d1);
      }
      const double base = edisk[d1];
      const double* row = rows + (d1 - b0) * stride;
      K::fold(row, base, static_cast<std::int32_t>(d1), run_best.data(),
              best_d1.data(), d1 + 1, n + 1);
    }
  }
  CHAINCKPT_ASSERT(best_d1[n] >= 0, "broken E_disk argmin");
  edisk[n] = run_best[n] + cm.c_mem_after(n) + cm.c_disk_after(n);
  const double expected_makespan = edisk[n];

  // The fold streamed row d1 over its n - d1 right endpoints, for every
  // d1 in [0, n): the sum over len in [1, n] of row_scan_stats(len).
  const std::uint64_t m = n;
  ScanStats scan_stats;
  scan_stats.steps = m * (m + 1) / 2;
  scan_stats.dense_cells =
      extra ? scan_stats.steps * (m + 2) / 3 : scan_stats.steps;
  scan_stats.cells_scanned = scan_stats.dense_cells;

  // Plan extraction: walk the disk chain, re-streaming one E_verif row per
  // chosen segment to recover the v1 argmins.
  plan::ResiliencePlan plan(n);
  double* row = rows;
  std::int32_t* args = row_args.data();
  std::size_t d2 = n;
  while (d2 > 0) {
    poll_cancellation(cancel);  // one re-streamed row per chosen segment
    const auto d1 = static_cast<std::size_t>(best_d1[d2]);
    CHAINCKPT_ASSERT(best_d1[d2] >= 0 && d1 < d2, "broken E_disk argmin");
    plan.set_action(d2, plan::Action::kDiskCheckpoint);
    stream_everif_row<K>(ctx, d1, d2, extra, row, args);
    scan_stats += row_scan_stats(d2 - d1, extra);
    std::size_t v2 = d2;
    while (v2 > d1) {
      const auto v1 = static_cast<std::size_t>(args[v2]);
      CHAINCKPT_ASSERT(args[v2] >= 0 && v1 < v2, "broken E_verif argmin");
      if (v2 != d2) plan.set_action(v2, plan::Action::kGuaranteedVerif);
      v2 = v1;
    }
    d2 = d1;
  }
  plan.validate();
  return OptimizationResult{std::move(plan), expected_makespan, scan_stats};
}

}  // namespace

OptimizationResult optimize_single_level(const DpContext& ctx,
                                         SingleLevelOptions options) {
  if (const CancelToken* cancel = ctx.cancel_token()) cancel->poll_now();
  return simd::with_kernels(ctx.simd_tier(), [&](auto kernels) {
    return optimize_single_level_impl<decltype(kernels)>(ctx, options);
  });
}

OptimizationResult optimize_single_level(const chain::TaskChain& chain,
                                         const platform::CostModel& costs,
                                         SingleLevelOptions options) {
  const DpContext ctx(chain, costs);
  return optimize_single_level(ctx, options);
}

}  // namespace chainckpt::core
