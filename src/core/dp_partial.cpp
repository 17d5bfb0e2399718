#include "core/dp_partial.hpp"

#include <cstdint>
#include <limits>
#include <vector>

#include "core/cancellation.hpp"
#include "core/level_dp.hpp"
#include "core/optimizer.hpp"

namespace chainckpt::core {

namespace {

/// The inner DP of one (d1, m1, j) scan as simd::PartialScan sees it.
///
/// For a fixed scan context the candidate score of a hop (p1, p2] of a
/// verified segment (v1, j] decomposes as
///
///   E^-(p1,p2) * e^{(lf+ls) W_{p2,j}}
///     = [es*(x+V) + b*K1 + d*RMh] * fs   (left-context terms, fixed)
///     + [c * fs] * E_verif               (varies with v1)
///     + [d*g * fs] * E_right(p2)         (varies along the recursion)
///
/// with K1 = R_D + E_mem and RMh = (1-g) R_M: every v1 of the scan shares
/// the hop row's bracketed coefficients, so K::partial builds each row
/// once and steps every v1 <= p1 on it.  K is the SIMD kernel facade
/// (core/simd/argmin_kernels.hpp); every tier folds the same candidates
/// in the same order to the same bits.
simd::PartialScan partial_scan(const DpContext& ctx,
                               const analysis::SegmentRows& rows,
                               std::size_t d1, std::size_t m1, std::size_t j,
                               double emem_at_m1) {
  const auto& seg = ctx.seg_tables();
  const auto& cm = ctx.costs();
  const double g = cm.miss();
  const double r_mem = cm.r_mem_after(m1);
  return {rows.exv_row(0),
          rows.b_row(0),
          rows.c_row(0),
          rows.d_row(0),
          rows.tl_row(0),
          rows.pf_row(0),
          rows.ef_row(0),
          rows.w_row(0),
          rows.stride(),
          rows.vp_data(),
          seg.fs_col(j),
          seg.c_col(j),
          seg.vg_after(j) - rows.vp_after(j),
          g,
          cm.r_disk_after(d1) + emem_at_m1,
          (1.0 - g) * r_mem,
          r_mem};
}

/// The level engine's v1 scan (the ColumnScanner of core/level_dp.hpp)
/// for context (d1, m1) and right endpoint j: folds
/// E_verif(d1,m1,v1) + E_partial(d1,m1,v1,v1,j) over v1 in [m1, j) with
/// the strict-less leftmost-argmin rule, in one K::partial call.
///
/// Out of line on purpose: inlined into run_level_dp's slab body, the
/// register allocation of the fused loops followed whatever else that
/// body held -- when the pruned scan mode's objects left that body, the
/// candidate loop began reloading its pointers from the stack, and
/// BM_Partial ran 5-7 % slower (GCC 12, 4-vCPU AVX-512 Xeon).  One call
/// per scan is noise against its O(len^3) work.  For the same reason the
/// lane buffers are looked up here, not in the scan lambda that is
/// inlined into the slab body.
template <typename K>
[[gnu::noinline]] void partial_column_scan(
    detail::SlabScratch& scratch, const DpContext& ctx,
    const analysis::SegmentRows& rows, std::size_t d1, std::size_t m1,
    std::size_t j, double emem_at_m1, const double* everif_row,
    double& best, std::int32_t& best_arg) {
  K::partial(partial_scan(ctx, rows, d1, m1, j, emem_at_m1), everif_row, m1,
             j, scratch.partial_lanes(ctx.n()), best, best_arg);
}

}  // namespace

OptimizationResult optimize_with_partial(const chain::TaskChain& chain,
                                         const platform::CostModel& costs) {
  const DpContext ctx(chain, costs);
  return optimize_with_partial(ctx);
}

namespace {

/// The solve body, instantiated once per SIMD kernel tier K (dispatched in
/// optimize_with_partial, as dp_two_level does): the inner hop rows fold
/// on K::partial, and the level engine's m1 chain and E_disk pass on
/// K::sum.  Every tier is bitwise identical to K = ScalarKernels.
template <typename K>
OptimizationResult optimize_with_partial_impl(const DpContext& ctx) {
  const std::size_t n = ctx.n();
  // The checkpoint -- attached, or else solve-local -- holds everything
  // a resumed run needs.
  SolveCheckpoint local;
  SolveCheckpoint& ckpt =
      ctx.checkpoint() != nullptr ? *ctx.checkpoint() : local;
  ckpt.begin_run(n, Algorithm::kADMV);
  const detail::LevelTables& tables = ckpt.tables();
  // The inner DP's row streams are this solve's own: no other engine reads
  // them, so the shared column tables never carry them.
  const analysis::SegmentRows rows(ctx.chain(), ctx.costs());

  const auto scan = [&](detail::SlabScratch& slab, std::size_t d1,
                        std::size_t m1, std::size_t j, double emem_at_m1,
                        const double* everif_row, double& best,
                        std::int32_t& best_arg) {
    partial_column_scan<K>(slab, ctx, rows, d1, m1, j, emem_at_m1,
                           everif_row, best, best_arg);
  };
  detail::run_level_dp<K>(ctx, ckpt, scan);

  // Partial positions of a winning segment are re-derived from the
  // recomputed E_verif row: the same kernel over [v1, v2) gives lane 0 --
  // v1's own solve -- the same inputs, so the same argmin chain.
  const auto partials = [&](detail::SlabScratch& slab, std::size_t d1,
                            std::size_t m1, std::size_t v1, std::size_t v2,
                            const double* everif_row) {
    poll_cancellation(ctx.cancel_token());  // one inner solve per segment
    const simd::PartialLanes lanes = slab.partial_lanes(n);
    double best = std::numeric_limits<double>::infinity();
    std::int32_t best_arg = -1;
    K::partial(partial_scan(ctx, rows, d1, m1, v2, tables.emem_at(d1, m1)),
               everif_row, v1, v2, lanes, best, best_arg);
    const std::size_t lane_stride = simd::partial_lane_stride(v2 - v1);
    std::vector<std::size_t> positions;
    for (auto p = static_cast<std::size_t>(lanes.next[0]); p < v2;
         p = static_cast<std::size_t>(lanes.next[(p - v1) * lane_stride])) {
      positions.push_back(p);
    }
    return positions;
  };

  return OptimizationResult{
      detail::extract_plan(ctx, tables, scan, partials),
      tables.edisk[n],
      detail::level_dp_scan_stats(n)};
}

}  // namespace

OptimizationResult optimize_with_partial(const DpContext& ctx) {
  // Entry checkpoint: a token that fired while the job sat in a queue
  // aborts before the tables are even allocated.  The per-(d1, j)
  // checkpoints live in run_level_dp and extract_plan, outside the
  // out-of-line v1 scan (partial_column_scan).
  if (const CancelToken* token = ctx.cancel_token()) token->poll_now();
  return simd::with_kernels(ctx.simd_tier(), [&](auto kernels) {
    return optimize_with_partial_impl<decltype(kernels)>(ctx);
  });
}

}  // namespace chainckpt::core
