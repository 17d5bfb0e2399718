#include "core/dp_two_level.hpp"

#include <cstdint>
#include <vector>

#include "core/level_dp.hpp"

namespace chainckpt::core {

OptimizationResult optimize_two_level(const chain::TaskChain& chain,
                                      const platform::CostModel& costs) {
  const DpContext ctx(chain, costs);
  return optimize_two_level(ctx);
}

namespace {

/// The solve body, instantiated once per SIMD kernel tier K so the fused
/// Eq. (4) scan compiles straight onto K::affine with no dispatch inside
/// the step (see run_level_dp's codegen note).  K = ScalarKernels
/// reproduces the historic loop token for token; the vector tiers are
/// bitwise identical to it by the kernel determinism contract.
template <typename K>
OptimizationResult optimize_two_level_impl(const DpContext& ctx) {
  // ADMV* never re-reads E_verif values (plan extraction needs only the
  // argmin tables), so skip the O(n^3) value table entirely.  The tables
  // live in the attached checkpoint, so committed slabs survive an
  // interruption, or else in a solve-local one.
  SolveCheckpoint local;
  SolveCheckpoint& ckpt =
      ctx.checkpoint() != nullptr ? *ctx.checkpoint() : local;
  ckpt.begin_run(ctx.n(), /*keep_verif_values=*/false);
  const detail::LevelTables& tables = ckpt.tables();

  const auto& seg = ctx.seg_tables();
  const auto& cm = ctx.costs();
  // Paper Eq. (4) fused over the hoisted SoA columns: for the verified
  // segment (v1, j] in context (d1, m1),
  //   E = es*(x + V*) + b*(R_D + E_mem) + c*E_verif + d*R_M
  // where exvg = es*(x + V*) and b/c/d depend only on (v1, j) and are read
  // at unit stride -- exactly the argmin_affine kernel shape.
  const auto scan = [&](std::size_t d1, std::size_t m1, std::size_t j,
                        double emem_at_m1, const double* everif_row,
                        double& best, std::int32_t& best_arg) {
    const double k1 = cm.r_disk_after(d1) + emem_at_m1;
    const double k2 = cm.r_mem_after(m1);
    K::affine(everif_row, seg.exvg_col(j), seg.b_col(j), seg.c_col(j),
              seg.d_col(j), k1, k2, m1, j, best, best_arg);
  };
  detail::run_level_dp<K>(ctx, ckpt, scan);

  const auto no_partials = [](std::size_t, std::size_t, std::size_t,
                              std::size_t) {
    return std::vector<std::size_t>{};
  };
  return OptimizationResult{detail::extract_plan(ctx, tables, no_partials),
                            tables.edisk[ctx.n()],
                            detail::level_dp_scan_stats(ctx.n())};
}

}  // namespace

OptimizationResult optimize_two_level(const DpContext& ctx) {
  // Entry checkpoint: a token that fired while the job sat in a queue
  // aborts before the O(n^3) tables are even allocated.  The per-step
  // checkpoints live in run_level_dp.
  if (const CancelToken* token = ctx.cancel_token()) token->poll_now();
  switch (ctx.simd_tier()) {
    case simd::SimdTier::kAvx512:
      return optimize_two_level_impl<simd::Avx512Kernels>(ctx);
    case simd::SimdTier::kAvx2:
      return optimize_two_level_impl<simd::Avx2Kernels>(ctx);
    default:
      return optimize_two_level_impl<simd::ScalarKernels>(ctx);
  }
}

}  // namespace chainckpt::core
