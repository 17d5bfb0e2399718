#include "core/dp_single_level.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "analysis/segment_math.hpp"
#include "core/cancellation.hpp"
#include "core/simd/argmin_kernels.hpp"
#include "util/arena.hpp"
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
//   1. compute a block of E_verif rows in parallel (one O(n) row per d1);
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

/// Streamed scratch: the row block plus the O(n) disk-level arrays,
/// registered with the arena pool (grow-only, reused across solves on the
/// same thread, reclaimed via core::BatchSolver::release_scratch()).
struct SingleLevelScratch final : util::ArenaBlock {
  std::vector<double> rows;
  std::vector<double> run_best;
  std::vector<double> edisk;
  std::vector<std::int32_t> best_d1;
  std::vector<std::int32_t> row_args;

  ~SingleLevelScratch() override { unregister(); }

  void ensure(std::size_t n, std::size_t block) {
    if (rows.size() < block * (n + 1)) rows.resize(block * (n + 1));
    if (run_best.size() < n + 1) {
      run_best.resize(n + 1);
      edisk.resize(n + 1);
      best_d1.resize(n + 1);
      row_args.resize(n + 1);
    }
  }

  std::size_t resident_bytes() const noexcept override {
    return util::vector_bytes(rows) + util::vector_bytes(run_best) +
           util::vector_bytes(edisk) + util::vector_bytes(best_d1) +
           util::vector_bytes(row_args);
  }
  void release() noexcept override {
    util::free_vector(rows);
    util::free_vector(run_best);
    util::free_vector(edisk);
    util::free_vector(best_d1);
    util::free_vector(row_args);
  }
};

SingleLevelScratch& single_level_scratch() {
  static thread_local SingleLevelScratch scratch;
  return scratch;
}

/// Rows per streamed block: enough to keep every worker busy, at least 8
/// and at most 256.  The block size only shapes the schedule -- the fold
/// consumes rows in ascending d1 order regardless -- so results are
/// identical for any value.
std::size_t stream_block_rows(std::size_t n) {
  const auto workers =
      static_cast<std::size_t>(std::max(1, util::hardware_parallelism()));
  return std::min(n, std::max<std::size_t>(8, std::min<std::size_t>(workers, 256)));
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
  SingleLevelScratch& s = single_level_scratch();
  s.ensure(n, block);
  std::fill(s.run_best.begin(), s.run_best.begin() + stride,
            std::numeric_limits<double>::infinity());
  std::fill(s.best_d1.begin(), s.best_d1.begin() + stride,
            std::int32_t{-1});
  s.edisk[0] = 0.0;

  for (std::size_t b0 = 0; b0 < n; b0 += block) {
    const std::size_t b1 = std::min(n, b0 + block);
    double* rows = s.rows.data();
    util::parallel_for(b0, b1, [&](std::size_t d1) {
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
        CHAINCKPT_ASSERT(s.best_d1[d1] >= 0, "broken E_disk argmin");
        s.edisk[d1] =
            s.run_best[d1] + cm.c_mem_after(d1) + cm.c_disk_after(d1);
      }
      const double base = s.edisk[d1];
      const double* row = rows + (d1 - b0) * stride;
      K::fold(row, base, static_cast<std::int32_t>(d1), s.run_best.data(),
              s.best_d1.data(), d1 + 1, n + 1);
    }
  }
  CHAINCKPT_ASSERT(s.best_d1[n] >= 0, "broken E_disk argmin");
  s.edisk[n] = s.run_best[n] + cm.c_mem_after(n) + cm.c_disk_after(n);
  const double expected_makespan = s.edisk[n];

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
  double* row = s.rows.data();
  std::int32_t* args = s.row_args.data();
  std::size_t d2 = n;
  while (d2 > 0) {
    poll_cancellation(cancel);  // one re-streamed row per chosen segment
    const auto d1 = static_cast<std::size_t>(s.best_d1[d2]);
    CHAINCKPT_ASSERT(s.best_d1[d2] >= 0 && d1 < d2, "broken E_disk argmin");
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
